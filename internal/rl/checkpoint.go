package rl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"ctjam/internal/ckpt"
	"ctjam/internal/nn"
)

// Checkpoint format for the DQN learner: a small custom binary layout in the
// style of nn/serialize.go (magic, version, little-endian fields). SaveState
// captures everything mutable — online and target weights, Adam moments,
// replay buffer, step counters and the exploration RNG — so LoadState into a
// learner built with the same DQNConfig resumes training bit-identically.

const (
	stateMagic   = 0x43544451 // "CTDQ"
	stateVersion = 1
)

// ErrBadCheckpoint is returned when decoding an invalid learner state.
var ErrBadCheckpoint = errors.New("rl: bad checkpoint")

// SaveState writes the learner's complete mutable state to w.
func (d *DQN) SaveState(w io.Writer) error {
	write := func(v any) error { return binary.Write(w, binary.LittleEndian, v) }
	if err := ckpt.WriteHeader(w, stateMagic, stateVersion); err != nil {
		return err
	}
	for _, v := range []any{
		uint32(d.cfg.StateDim), uint32(d.cfg.NumActions),
		uint64(d.envSteps), uint64(d.trainSteps),
		uint64(d.rngSrc.SeedUsed()), d.rngSrc.State(),
	} {
		if err := write(v); err != nil {
			return err
		}
	}
	if err := d.online.Save(w); err != nil {
		return err
	}
	if err := d.target.Save(w); err != nil {
		return err
	}
	if err := d.opt.SaveAdam(w, d.online.Params()); err != nil {
		return err
	}
	// Replay buffer: ring indices plus the live entries in storage order.
	count := d.buffer.Len()
	for _, v := range []any{uint32(d.buffer.next), boolByte(d.buffer.full), uint32(count)} {
		if err := write(v); err != nil {
			return err
		}
	}
	for i := 0; i < count; i++ {
		t := d.buffer.buf[i]
		if err := writeTransition(w, t, d.cfg.StateDim); err != nil {
			return err
		}
	}
	return nil
}

// stateHeader is the fixed CTDQ header that opens a learner checkpoint.
type stateHeader struct {
	stateDim, numActions uint32
	envSteps, trainSteps uint64
	rngSeed, rngState    uint64
}

// readStateHeader reads a CTDQ header and checks its magic and version. It
// is the one parser of the header, shared by LoadState and ReadSnapshot;
// checks against a learner's configuration stay with the caller.
func readStateHeader(r io.Reader) (stateHeader, error) {
	if err := ckpt.ReadHeader(r, stateMagic, stateVersion, ErrBadCheckpoint); err != nil {
		return stateHeader{}, err
	}
	var h stateHeader
	for _, v := range []any{&h.stateDim, &h.numActions, &h.envSteps, &h.trainSteps, &h.rngSeed, &h.rngState} {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return stateHeader{}, fmt.Errorf("%w: header: %v", ErrBadCheckpoint, err)
		}
	}
	return h, nil
}

// LoadState restores state written by SaveState into d, which must have been
// built with the same DQNConfig. On any error d is left unchanged.
func (d *DQN) LoadState(r io.Reader) error {
	read := func(v any) error { return binary.Read(r, binary.LittleEndian, v) }
	h, err := readStateHeader(r)
	if err != nil {
		return err
	}
	if int(h.stateDim) != d.cfg.StateDim || int(h.numActions) != d.cfg.NumActions {
		return fmt.Errorf("%w: dims %dx%d, learner wants %dx%d",
			ErrBadCheckpoint, h.stateDim, h.numActions, d.cfg.StateDim, d.cfg.NumActions)
	}
	if h.envSteps > 1<<40 || h.trainSteps > h.envSteps {
		return fmt.Errorf("%w: implausible counters env=%d train=%d", ErrBadCheckpoint, h.envSteps, h.trainSteps)
	}
	online, err := nn.Load(r)
	if err != nil {
		return fmt.Errorf("%w: online network: %v", ErrBadCheckpoint, err)
	}
	target, err := nn.Load(r)
	if err != nil {
		return fmt.Errorf("%w: target network: %v", ErrBadCheckpoint, err)
	}
	// Stage the weights into clones so a failure below leaves d untouched,
	// then validate shapes against the configured architecture.
	newOnline, err := d.online.Clone()
	if err != nil {
		return err
	}
	newTarget, err := d.target.Clone()
	if err != nil {
		return err
	}
	if err := newOnline.CopyWeightsFrom(online); err != nil {
		return fmt.Errorf("%w: online network: %v", ErrBadCheckpoint, err)
	}
	if err := newTarget.CopyWeightsFrom(target); err != nil {
		return fmt.Errorf("%w: target network: %v", ErrBadCheckpoint, err)
	}
	opt := nn.NewAdam(d.cfg.LearningRate)
	if err := opt.LoadAdam(r, newOnline.Params()); err != nil {
		return fmt.Errorf("%w: adam: %v", ErrBadCheckpoint, err)
	}

	var next uint32
	var fullB uint8
	var count uint32
	for _, v := range []any{&next, &fullB, &count} {
		if err := read(v); err != nil {
			return fmt.Errorf("%w: buffer header: %v", ErrBadCheckpoint, err)
		}
	}
	capacity := d.buffer.Cap()
	full := fullB != 0
	if int(count) > capacity || int(next) >= capacity || fullB > 1 {
		return fmt.Errorf("%w: buffer indices count=%d next=%d full=%d cap=%d",
			ErrBadCheckpoint, count, next, fullB, capacity)
	}
	if (full && int(count) != capacity) || (!full && int(count) != int(next)) {
		return fmt.Errorf("%w: inconsistent buffer fill count=%d next=%d full=%v",
			ErrBadCheckpoint, count, next, full)
	}
	buf := make([]Transition, capacity)
	for i := 0; i < int(count); i++ {
		t, err := readTransition(r, d.cfg.StateDim, d.cfg.NumActions)
		if err != nil {
			return err
		}
		buf[i] = t
	}

	// All sections decoded: commit.
	d.online = newOnline
	d.target = newTarget
	d.opt = opt
	d.buffer.buf = buf
	d.buffer.next = int(next)
	d.buffer.full = full
	d.envSteps = int(h.envSteps)
	d.trainSteps = int(h.trainSteps)
	d.rngSrc.Restore(int64(h.rngSeed), h.rngState)
	return nil
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

func writeTransition(w io.Writer, t Transition, stateDim int) error {
	write := func(v any) error { return binary.Write(w, binary.LittleEndian, v) }
	if len(t.State) != stateDim || len(t.Next) != stateDim {
		return fmt.Errorf("rl: transition dims %d/%d, want %d", len(t.State), len(t.Next), stateDim)
	}
	for _, s := range [2][]float64{t.State, t.Next} {
		for _, x := range s {
			if err := write(math.Float64bits(x)); err != nil {
				return err
			}
		}
	}
	if err := write(uint32(t.Action)); err != nil {
		return err
	}
	if err := write(math.Float64bits(t.Reward)); err != nil {
		return err
	}
	return write(boolByte(t.Done))
}

func readTransition(r io.Reader, stateDim, numActions int) (Transition, error) {
	read := func(v any) error { return binary.Read(r, binary.LittleEndian, v) }
	t := Transition{State: make([]float64, stateDim), Next: make([]float64, stateDim)}
	for _, s := range [2][]float64{t.State, t.Next} {
		for i := range s {
			var bits uint64
			if err := read(&bits); err != nil {
				return Transition{}, fmt.Errorf("%w: transition: %v", ErrBadCheckpoint, err)
			}
			s[i] = math.Float64frombits(bits)
		}
	}
	var action uint32
	if err := read(&action); err != nil {
		return Transition{}, fmt.Errorf("%w: transition action: %v", ErrBadCheckpoint, err)
	}
	if int(action) >= numActions {
		return Transition{}, fmt.Errorf("%w: action %d out of range [0,%d)", ErrBadCheckpoint, action, numActions)
	}
	var rewardBits uint64
	if err := read(&rewardBits); err != nil {
		return Transition{}, fmt.Errorf("%w: transition reward: %v", ErrBadCheckpoint, err)
	}
	var done uint8
	if err := read(&done); err != nil {
		return Transition{}, fmt.Errorf("%w: transition done: %v", ErrBadCheckpoint, err)
	}
	if done > 1 {
		return Transition{}, fmt.Errorf("%w: transition done flag %d", ErrBadCheckpoint, done)
	}
	t.Action = int(action)
	t.Reward = math.Float64frombits(rewardBits)
	t.Done = done == 1
	return t, nil
}
