package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"

	"ctjam/internal/ckpt"
	"ctjam/internal/nn"
	"ctjam/internal/policy"
	"ctjam/internal/rl"
)

// Scheme checkpoint format ("CTSC"): the wire form of one trained/solved
// policy.Scheme, the artifact fleet-wide scheme reuse ships through the
// distributed coordinator. A checkpoint carries everything needed to rebuild
// the scheme on another process — the family (DQN or MDP), the topology the
// encoders need, and the trained parameters (a CTJM network stream for DQN,
// the solved MDP's parameters and greedy action table for MDP) — and nothing
// environment-local.
//
// The encoding is canonical: Encode writes one fixed little-endian layout,
// DecodeScheme accepts exactly that layout (rejecting trailing bytes and
// out-of-range fields), and float64 values travel as raw IEEE-754 bits. So
// for every accepted stream, Encode(DecodeScheme(x)) == x byte for byte —
// the round-trip contract FuzzSchemeRoundTrip pins — and a SHA-256
// fingerprint of the bytes identifies the checkpoint content-addressably.

const (
	schemeMagic   = 0x43545343 // "CTSC"
	schemeVersion = 1

	// Decode bounds: generous multiples of anything the experiments build,
	// tight enough that a hostile stream cannot demand huge allocations.
	maxSchemeName     = 255
	maxSchemeChannels = 4096
	maxSchemePowers   = 256
	maxSchemeHistory  = 1024
)

// ErrBadScheme is returned when decoding an invalid scheme checkpoint.
var ErrBadScheme = errors.New("core: bad scheme checkpoint")

// SchemeFamily identifies the kind of policy a checkpoint rebuilds.
type SchemeFamily uint8

const (
	// SchemeDQN is a trained Q-network scheme (policy.DQNScheme over a CTJM
	// network stream).
	SchemeDQN SchemeFamily = 1
	// SchemeMDP is an exactly solved MDP scheme (policy.MDPScheme over the
	// model parameters and greedy action table).
	SchemeMDP SchemeFamily = 2
)

func (f SchemeFamily) String() string {
	switch f {
	case SchemeDQN:
		return "dqn"
	case SchemeMDP:
		return "mdp"
	default:
		return fmt.Sprintf("family(%d)", uint8(f))
	}
}

// SchemeCheckpoint is the decoded form of one CTSC stream. Exactly the
// fields of the checkpoint's family are meaningful.
type SchemeCheckpoint struct {
	Family SchemeFamily
	// Name is the scheme's display name ("RL FH", "MDP*", ...).
	Name string
	// Fast32 marks a DQN checkpoint whose scheme evaluates on the float32
	// fast engine (the weights themselves always travel as float64).
	Fast32 bool

	// Channels is shared by both families; Powers/HistoryLen/Net belong to
	// SchemeDQN, SweepWidth/Params/Actions to SchemeMDP.
	Channels   int
	Powers     int
	HistoryLen int
	Net        *nn.Network

	SweepWidth int
	Params     Params
	Actions    []int
}

// SchemeFingerprint returns the canonical content address of an encoded
// checkpoint: the hex SHA-256 of its bytes. Workers and the coordinator both
// recompute it on receive, so a corrupted or substituted blob cannot be
// installed under a healthy key.
func SchemeFingerprint(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// SchemeCheckpoint captures the agent's trained network as a distributable
// checkpoint. fast32 marks the checkpoint for the float32 fast inference
// engine (the weights still travel exact). The checkpoint references the
// live network, so encode it before any further training.
func (a *DQNAgent) SchemeCheckpoint(fast32 bool) (*SchemeCheckpoint, error) {
	return &SchemeCheckpoint{
		Family:     SchemeDQN,
		Name:       a.Name(),
		Fast32:     fast32,
		Channels:   a.cfg.Channels,
		Powers:     a.cfg.Powers,
		HistoryLen: a.cfg.HistoryLen,
		Net:        a.Network(),
	}, nil
}

// NewMDPSchemeCheckpoint captures a solved model's greedy policy as a
// distributable checkpoint for a K-channel system.
func NewMDPSchemeCheckpoint(name string, m *Model, solved []int, channels, sweepWidth int) (*SchemeCheckpoint, error) {
	if err := checkTopology(channels, sweepWidth); err != nil {
		return nil, err
	}
	if len(solved) != m.NumStates() {
		return nil, fmt.Errorf("core: policy has %d states, model needs %d", len(solved), m.NumStates())
	}
	return &SchemeCheckpoint{
		Family:     SchemeMDP,
		Name:       name,
		Channels:   channels,
		SweepWidth: sweepWidth,
		Params:     m.Params(),
		Actions:    append([]int(nil), solved...),
	}, nil
}

// validate checks the checkpoint fields against the same bounds DecodeScheme
// enforces, so Encode never emits a stream Decode would reject.
func (c *SchemeCheckpoint) validate() error {
	if len(c.Name) > maxSchemeName {
		return fmt.Errorf("%w: name of %d bytes exceeds %d", ErrBadScheme, len(c.Name), maxSchemeName)
	}
	if c.Channels < 2 || c.Channels > maxSchemeChannels {
		return fmt.Errorf("%w: channels %d out of range [2,%d]", ErrBadScheme, c.Channels, maxSchemeChannels)
	}
	switch c.Family {
	case SchemeDQN:
		if c.Powers < 1 || c.Powers > maxSchemePowers {
			return fmt.Errorf("%w: powers %d out of range [1,%d]", ErrBadScheme, c.Powers, maxSchemePowers)
		}
		if c.HistoryLen < 1 || c.HistoryLen > maxSchemeHistory {
			return fmt.Errorf("%w: history length %d out of range [1,%d]", ErrBadScheme, c.HistoryLen, maxSchemeHistory)
		}
		if c.Net == nil {
			return fmt.Errorf("%w: dqn checkpoint without a network", ErrBadScheme)
		}
		var first, last *nn.Dense
		for _, l := range c.Net.Layers {
			if d, ok := l.(*nn.Dense); ok {
				if first == nil {
					first = d
				}
				last = d
			}
		}
		if first == nil {
			return fmt.Errorf("%w: network has no dense layers", ErrBadScheme)
		}
		if first.W.Value.Rows != 3*c.HistoryLen || last.W.Value.Cols != c.Channels*c.Powers {
			return fmt.Errorf("%w: network shape %dx%d does not match history %d / %d channels x %d powers",
				ErrBadScheme, first.W.Value.Rows, last.W.Value.Cols, c.HistoryLen, c.Channels, c.Powers)
		}
	case SchemeMDP:
		if c.Fast32 {
			return fmt.Errorf("%w: fast32 applies only to dqn checkpoints", ErrBadScheme)
		}
		if err := checkTopology(c.Channels, c.SweepWidth); err != nil {
			return fmt.Errorf("%w: %v", ErrBadScheme, err)
		}
		cycle := (c.Channels + c.SweepWidth - 1) / c.SweepWidth
		if c.Params.SweepCycle != cycle {
			return fmt.Errorf("%w: sweep cycle %d does not match %d channels / width %d (want %d)",
				ErrBadScheme, c.Params.SweepCycle, c.Channels, c.SweepWidth, cycle)
		}
		if len(c.Params.TxPowers) < 1 || len(c.Params.TxPowers) > maxSchemePowers {
			return fmt.Errorf("%w: %d tx powers out of range [1,%d]", ErrBadScheme, len(c.Params.TxPowers), maxSchemePowers)
		}
		if err := c.Params.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrBadScheme, err)
		}
		if len(c.Actions) != c.Params.SweepCycle+1 {
			return fmt.Errorf("%w: %d actions for %d states", ErrBadScheme, len(c.Actions), c.Params.SweepCycle+1)
		}
		for s, a := range c.Actions {
			if a < 0 || a >= 2*len(c.Params.TxPowers) {
				return fmt.Errorf("%w: action %d at state %d out of range [0,%d)", ErrBadScheme, a, s, 2*len(c.Params.TxPowers))
			}
		}
	default:
		return fmt.Errorf("%w: unknown family %d", ErrBadScheme, uint8(c.Family))
	}
	return nil
}

// Encode serializes the checkpoint into its canonical CTSC byte stream.
func (c *SchemeCheckpoint) Encode() ([]byte, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	w := func(v any) { binary.Write(&buf, binary.LittleEndian, v) }
	ckpt.WriteHeader(&buf, schemeMagic, schemeVersion)
	w(uint8(c.Family))
	w(boolByte(c.Fast32))
	w(uint16(len(c.Name)))
	buf.WriteString(c.Name)
	w(uint32(c.Channels))
	switch c.Family {
	case SchemeDQN:
		w(uint32(c.Powers))
		w(uint32(c.HistoryLen))
		if err := c.Net.Save(&buf); err != nil {
			return nil, err
		}
	case SchemeMDP:
		w(uint32(c.SweepWidth))
		w(uint32(len(c.Params.TxPowers)))
		for _, v := range c.Params.TxPowers {
			w(v)
		}
		for _, v := range c.Params.WinProb {
			w(v)
		}
		w(c.Params.LossHop)
		w(c.Params.LossJam)
		for _, a := range c.Actions {
			w(uint32(a))
		}
	}
	return buf.Bytes(), nil
}

// DecodeScheme parses a CTSC stream. It accepts exactly the canonical
// encoding: any accepted input re-encodes to identical bytes, and trailing
// data, bad magic or out-of-range fields are errors.
func DecodeScheme(data []byte) (*SchemeCheckpoint, error) {
	r := bytes.NewReader(data)
	read := func(v any) error { return binary.Read(r, binary.LittleEndian, v) }
	if err := ckpt.ReadHeader(r, schemeMagic, schemeVersion, ErrBadScheme); err != nil {
		return nil, err
	}
	var family, fast32 uint8
	var nameLen uint16
	for _, v := range []any{&family, &fast32, &nameLen} {
		if err := read(v); err != nil {
			return nil, fmt.Errorf("%w: header: %v", ErrBadScheme, err)
		}
	}
	if fast32 > 1 {
		return nil, fmt.Errorf("%w: fast32 flag %d", ErrBadScheme, fast32)
	}
	if nameLen > maxSchemeName {
		return nil, fmt.Errorf("%w: name of %d bytes exceeds %d", ErrBadScheme, nameLen, maxSchemeName)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r, name); err != nil {
		return nil, fmt.Errorf("%w: name: %v", ErrBadScheme, err)
	}
	c := &SchemeCheckpoint{
		Family: SchemeFamily(family),
		Name:   string(name),
		Fast32: fast32 == 1,
	}
	var channels uint32
	if err := read(&channels); err != nil {
		return nil, fmt.Errorf("%w: channels: %v", ErrBadScheme, err)
	}
	// Bound before any allocation sized from it (the action table is
	// SweepCycle+1 entries, and SweepCycle can approach Channels).
	if channels < 2 || channels > maxSchemeChannels {
		return nil, fmt.Errorf("%w: channels %d out of range [2,%d]", ErrBadScheme, channels, maxSchemeChannels)
	}
	c.Channels = int(channels)
	switch c.Family {
	case SchemeDQN:
		var powers, history uint32
		for _, v := range []any{&powers, &history} {
			if err := read(v); err != nil {
				return nil, fmt.Errorf("%w: dqn header: %v", ErrBadScheme, err)
			}
		}
		c.Powers, c.HistoryLen = int(powers), int(history)
		net, err := nn.Load(r)
		if err != nil {
			return nil, fmt.Errorf("%w: network: %v", ErrBadScheme, err)
		}
		c.Net = net
	case SchemeMDP:
		var sweepWidth, nPowers uint32
		for _, v := range []any{&sweepWidth, &nPowers} {
			if err := read(v); err != nil {
				return nil, fmt.Errorf("%w: mdp header: %v", ErrBadScheme, err)
			}
		}
		if nPowers < 1 || nPowers > maxSchemePowers {
			return nil, fmt.Errorf("%w: %d tx powers out of range [1,%d]", ErrBadScheme, nPowers, maxSchemePowers)
		}
		c.SweepWidth = int(sweepWidth)
		if c.SweepWidth < 1 || c.SweepWidth > c.Channels {
			return nil, fmt.Errorf("%w: sweep width %d out of range [1,%d]", ErrBadScheme, c.SweepWidth, c.Channels)
		}
		c.Params.SweepCycle = (c.Channels + c.SweepWidth - 1) / c.SweepWidth
		c.Params.TxPowers = make([]float64, nPowers)
		c.Params.WinProb = make([]float64, nPowers)
		for i := range c.Params.TxPowers {
			if err := read(&c.Params.TxPowers[i]); err != nil {
				return nil, fmt.Errorf("%w: tx powers: %v", ErrBadScheme, err)
			}
		}
		for i := range c.Params.WinProb {
			if err := read(&c.Params.WinProb[i]); err != nil {
				return nil, fmt.Errorf("%w: win probabilities: %v", ErrBadScheme, err)
			}
		}
		for _, v := range []any{&c.Params.LossHop, &c.Params.LossJam} {
			if err := read(v); err != nil {
				return nil, fmt.Errorf("%w: losses: %v", ErrBadScheme, err)
			}
		}
		c.Actions = make([]int, c.Params.SweepCycle+1)
		for i := range c.Actions {
			var a uint32
			if err := read(&a); err != nil {
				return nil, fmt.Errorf("%w: actions: %v", ErrBadScheme, err)
			}
			c.Actions[i] = int(a)
		}
	default:
		return nil, fmt.Errorf("%w: unknown family %d", ErrBadScheme, family)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadScheme, r.Len())
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// Scheme rebuilds the batched policy.Scheme the checkpoint describes. The
// result is behaviorally identical — bit for bit on the exact engine — to
// the scheme the original trainer held: weights and action tables travel as
// exact float64 bits / integers, and the encoders are rebuilt from the same
// topology fields.
func (c *SchemeCheckpoint) Scheme() (*policy.Scheme, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	switch c.Family {
	case SchemeDQN:
		snap, err := rl.NewSnapshot(c.Net)
		if err != nil {
			return nil, err
		}
		if c.Fast32 {
			if snap, err = snap.Fast32(); err != nil {
				return nil, err
			}
		}
		return policy.DQNScheme(c.Name, snap, c.Channels, c.Powers, c.HistoryLen)
	case SchemeMDP:
		model, err := NewModel(c.Params)
		if err != nil {
			return nil, err
		}
		return policy.MDPScheme(c.Name, model, c.Actions, c.Channels, c.SweepWidth)
	default:
		return nil, fmt.Errorf("%w: unknown family %d", ErrBadScheme, uint8(c.Family))
	}
}
