package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

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
// checkpoint. The checkpoint references the live network, so encode it
// before any further training.
func (a *DQNAgent) SchemeCheckpoint() (*SchemeCheckpoint, error) {
	return &SchemeCheckpoint{
		Family:     SchemeDQN,
		Name:       a.Name(),
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
	e := ckpt.NewEncoder(&buf)
	e.Header(schemeMagic, schemeVersion)
	e.U8(uint8(c.Family))
	e.U8(0) // engine flag: 1 selected the removed float32 engine
	e.U16(uint16(len(c.Name)))
	e.Bytes([]byte(c.Name))
	e.U32(uint32(c.Channels))
	switch c.Family {
	case SchemeDQN:
		e.U32(uint32(c.Powers))
		e.U32(uint32(c.HistoryLen))
		c.Net.Encode(e)
	case SchemeMDP:
		e.U32(uint32(c.SweepWidth))
		e.U32(uint32(len(c.Params.TxPowers)))
		e.F64s(c.Params.TxPowers)
		e.F64s(c.Params.WinProb)
		e.F64(c.Params.LossHop)
		e.F64(c.Params.LossJam)
		for _, a := range c.Actions {
			e.U32(uint32(a))
		}
	}
	if err := e.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeScheme parses a CTSC stream. It accepts exactly the canonical
// encoding: any accepted input re-encodes to identical bytes, and trailing
// data, bad magic or out-of-range fields are errors.
func DecodeScheme(data []byte) (*SchemeCheckpoint, error) {
	r := bytes.NewReader(data)
	d := ckpt.NewDecoder(r, ErrBadScheme)
	d.Header(schemeMagic, schemeVersion)
	c := &SchemeCheckpoint{Family: SchemeFamily(d.U8())}
	switch engine := d.U8(); engine {
	case 0:
	case 1:
		d.Failf("engine flag 1 selects the fast32 engine, which was removed")
	default:
		d.Failf("engine flag %d", engine)
	}
	nameLen := d.U16()
	if nameLen > maxSchemeName {
		d.Failf("name of %d bytes exceeds %d", nameLen, maxSchemeName)
	}
	d.Section("body")
	c.Name = string(d.Bytes(int(nameLen)))
	// Bound before any allocation sized from it (the action table is
	// SweepCycle+1 entries, and SweepCycle can approach Channels).
	c.Channels = int(d.U32())
	if c.Channels < 2 || c.Channels > maxSchemeChannels {
		d.Failf("channels %d out of range [2,%d]", c.Channels, maxSchemeChannels)
	}
	switch c.Family {
	case SchemeDQN:
		c.Powers, c.HistoryLen = int(d.U32()), int(d.U32())
		c.Net = nn.Decode(d)
	case SchemeMDP:
		c.SweepWidth = int(d.U32())
		nPowers := d.U32()
		if nPowers < 1 || nPowers > maxSchemePowers {
			d.Failf("%d tx powers out of range [1,%d]", nPowers, maxSchemePowers)
		}
		if c.SweepWidth < 1 || c.SweepWidth > c.Channels {
			d.Failf("sweep width %d out of range [1,%d]", c.SweepWidth, c.Channels)
		}
		if d.Err() != nil {
			break
		}
		c.Params.SweepCycle = (c.Channels + c.SweepWidth - 1) / c.SweepWidth
		c.Params.TxPowers = d.F64s(int(nPowers))
		c.Params.WinProb = d.F64s(int(nPowers))
		c.Params.LossHop, c.Params.LossJam = d.F64(), d.F64()
		c.Actions = make([]int, c.Params.SweepCycle+1)
		for i := range c.Actions {
			c.Actions[i] = int(d.U32())
		}
	default:
		d.Failf("unknown family %d", uint8(c.Family))
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, d.Failf("%d trailing bytes", r.Len())
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// Scheme rebuilds the batched policy.Scheme the checkpoint describes. The
// result is behaviorally identical, bit for bit, to the scheme the original
// trainer held: weights and action tables travel as exact float64 bits /
// integers, and the encoders are rebuilt from the same topology fields.
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
