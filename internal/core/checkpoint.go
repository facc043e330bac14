package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"ctjam/internal/ckpt"
	"ctjam/internal/env"
	"ctjam/internal/jammer"
)

// Training checkpoint format: a "CTTC" header followed by the training-loop
// cursor (slots completed, reward accumulator), the agent's rolling history
// window, the environment snapshot (RNG, channel, slot and generic jammer
// strategy state) and finally the learner state from rl.DQN.SaveState.
// Restoring all of it into a same-config agent and environment makes a
// resumed run bit-identical to one that never stopped.
//
// Version 2 replaced the hardcoded sweeper triple (locked flag, lock block,
// remaining blocks) with the self-describing jammer.State encoding (kind tag,
// int/float payloads, optional nested inner state), so any strategy in the
// zoo checkpoints through the same codec.

const (
	trainMagic   = 0x43545443 // "CTTC"
	trainVersion = 2
)

// Caps on the jammer-state encoding; real states are far smaller, so these
// only bound what a corrupt stream can make us allocate.
const (
	maxJamKindLen = 64
	maxJamPayload = 1 << 16
	maxJamNesting = 8
)

// writeJammerState encodes a jammer.State (recursively for wrappers).
func writeJammerState(w io.Writer, st jammer.State) error {
	write := func(v any) error { return binary.Write(w, binary.LittleEndian, v) }
	if len(st.Kind) > maxJamKindLen {
		return fmt.Errorf("core: jammer kind %q longer than %d bytes", st.Kind, maxJamKindLen)
	}
	if len(st.Ints) > maxJamPayload || len(st.Floats) > maxJamPayload {
		return fmt.Errorf("core: jammer state payload too large (%d ints, %d floats)", len(st.Ints), len(st.Floats))
	}
	if err := write(uint32(len(st.Kind))); err != nil {
		return err
	}
	if _, err := w.Write([]byte(st.Kind)); err != nil {
		return err
	}
	if err := write(uint32(len(st.Ints))); err != nil {
		return err
	}
	for _, x := range st.Ints {
		if err := write(uint64(x)); err != nil {
			return err
		}
	}
	if err := write(uint32(len(st.Floats))); err != nil {
		return err
	}
	for _, x := range st.Floats {
		if err := write(math.Float64bits(x)); err != nil {
			return err
		}
	}
	if st.Inner == nil {
		return write(uint8(0))
	}
	if err := write(uint8(1)); err != nil {
		return err
	}
	return writeJammerState(w, *st.Inner)
}

// readJammerState decodes an encoding written by writeJammerState.
func readJammerState(r io.Reader, depth int) (jammer.State, error) {
	read := func(v any) error { return binary.Read(r, binary.LittleEndian, v) }
	if depth > maxJamNesting {
		return jammer.State{}, fmt.Errorf("%w: jammer state nested deeper than %d", ErrBadTrainingCheckpoint, maxJamNesting)
	}
	var kindLen uint32
	if err := read(&kindLen); err != nil {
		return jammer.State{}, fmt.Errorf("%w: jammer kind: %v", ErrBadTrainingCheckpoint, err)
	}
	if kindLen > maxJamKindLen {
		return jammer.State{}, fmt.Errorf("%w: implausible jammer kind length %d", ErrBadTrainingCheckpoint, kindLen)
	}
	kind := make([]byte, kindLen)
	if _, err := io.ReadFull(r, kind); err != nil {
		return jammer.State{}, fmt.Errorf("%w: jammer kind: %v", ErrBadTrainingCheckpoint, err)
	}
	st := jammer.State{Kind: string(kind)}
	var nInts uint32
	if err := read(&nInts); err != nil {
		return jammer.State{}, fmt.Errorf("%w: jammer ints: %v", ErrBadTrainingCheckpoint, err)
	}
	if nInts > maxJamPayload {
		return jammer.State{}, fmt.Errorf("%w: implausible jammer int count %d", ErrBadTrainingCheckpoint, nInts)
	}
	if nInts > 0 {
		st.Ints = make([]int64, nInts)
		for i := range st.Ints {
			var x uint64
			if err := read(&x); err != nil {
				return jammer.State{}, fmt.Errorf("%w: jammer ints: %v", ErrBadTrainingCheckpoint, err)
			}
			st.Ints[i] = int64(x)
		}
	}
	var nFloats uint32
	if err := read(&nFloats); err != nil {
		return jammer.State{}, fmt.Errorf("%w: jammer floats: %v", ErrBadTrainingCheckpoint, err)
	}
	if nFloats > maxJamPayload {
		return jammer.State{}, fmt.Errorf("%w: implausible jammer float count %d", ErrBadTrainingCheckpoint, nFloats)
	}
	if nFloats > 0 {
		st.Floats = make([]float64, nFloats)
		for i := range st.Floats {
			var bits uint64
			if err := read(&bits); err != nil {
				return jammer.State{}, fmt.Errorf("%w: jammer floats: %v", ErrBadTrainingCheckpoint, err)
			}
			st.Floats[i] = math.Float64frombits(bits)
		}
	}
	var hasInner uint8
	if err := read(&hasInner); err != nil {
		return jammer.State{}, fmt.Errorf("%w: jammer inner flag: %v", ErrBadTrainingCheckpoint, err)
	}
	switch hasInner {
	case 0:
	case 1:
		inner, err := readJammerState(r, depth+1)
		if err != nil {
			return jammer.State{}, err
		}
		st.Inner = &inner
	default:
		return jammer.State{}, fmt.Errorf("%w: bad jammer inner flag %d", ErrBadTrainingCheckpoint, hasInner)
	}
	return st, nil
}

// ErrBadTrainingCheckpoint is returned when decoding an invalid training
// checkpoint.
var ErrBadTrainingCheckpoint = errors.New("core: bad training checkpoint")

// TrainingCursor is the loop progress restored by LoadTraining.
type TrainingCursor struct {
	// Slot is the number of training slots already completed.
	Slot int
	// TotalReward is the reward summed over those slots.
	TotalReward float64
}

// SaveTraining writes a complete mid-training snapshot: the loop cursor, the
// agent's history window, the environment state and the DQN learner state.
func (a *DQNAgent) SaveTraining(w io.Writer, e *env.Environment, cur TrainingCursor) error {
	write := func(v any) error { return binary.Write(w, binary.LittleEndian, v) }
	st := e.State()
	if err := ckpt.WriteHeader(w, trainMagic, trainVersion); err != nil {
		return err
	}
	for _, v := range []any{
		uint64(cur.Slot), math.Float64bits(cur.TotalReward),
		uint32(len(a.hist.Window())),
	} {
		if err := write(v); err != nil {
			return err
		}
	}
	for _, x := range a.hist.Window() {
		if err := write(math.Float64bits(x)); err != nil {
			return err
		}
	}
	for _, v := range []any{
		st.RNG, uint32(st.Channel), uint64(st.Slot), boolByte(st.Started),
	} {
		if err := write(v); err != nil {
			return err
		}
	}
	if err := writeJammerState(w, st.Jammer); err != nil {
		return err
	}
	return a.dqn.SaveState(w)
}

// trainingPrelude is everything a CTTC stream holds before the embedded
// CTDQ learner state.
type trainingPrelude struct {
	cursor TrainingCursor
	hist   []float64
	env    env.State
}

// readTrainingPrelude reads a CTTC stream up to the embedded learner state.
// It is the one parser of the prelude, shared by LoadTraining and
// SnapshotFromCheckpoint, so it checks only what needs no agent
// configuration; in-stream lengths are capped so a corrupt stream cannot
// force a large allocation.
func readTrainingPrelude(r io.Reader) (trainingPrelude, error) {
	read := func(v any) error { return binary.Read(r, binary.LittleEndian, v) }
	if err := ckpt.ReadHeader(r, trainMagic, trainVersion, ErrBadTrainingCheckpoint); err != nil {
		return trainingPrelude{}, err
	}
	var slot, totalBits uint64
	var histLen uint32
	for _, v := range []any{&slot, &totalBits, &histLen} {
		if err := read(v); err != nil {
			return trainingPrelude{}, fmt.Errorf("%w: header: %v", ErrBadTrainingCheckpoint, err)
		}
	}
	if slot > 1<<40 {
		return trainingPrelude{}, fmt.Errorf("%w: implausible slot %d", ErrBadTrainingCheckpoint, slot)
	}
	if histLen > 1<<20 {
		return trainingPrelude{}, fmt.Errorf("%w: implausible history length %d", ErrBadTrainingCheckpoint, histLen)
	}
	p := trainingPrelude{
		cursor: TrainingCursor{Slot: int(slot), TotalReward: math.Float64frombits(totalBits)},
		hist:   make([]float64, histLen),
	}
	for i := range p.hist {
		var bits uint64
		if err := read(&bits); err != nil {
			return trainingPrelude{}, fmt.Errorf("%w: history: %v", ErrBadTrainingCheckpoint, err)
		}
		p.hist[i] = math.Float64frombits(bits)
	}

	var envRNG, envSlot uint64
	var envChannel uint32
	var started uint8
	for _, v := range []any{&envRNG, &envChannel, &envSlot, &started} {
		if err := read(v); err != nil {
			return trainingPrelude{}, fmt.Errorf("%w: environment: %v", ErrBadTrainingCheckpoint, err)
		}
	}
	if started > 1 {
		return trainingPrelude{}, fmt.Errorf("%w: bad started flag %d", ErrBadTrainingCheckpoint, started)
	}
	if envSlot > 1<<40 {
		return trainingPrelude{}, fmt.Errorf("%w: implausible env slot %d", ErrBadTrainingCheckpoint, envSlot)
	}
	jamState, err := readJammerState(r, 1)
	if err != nil {
		return trainingPrelude{}, err
	}
	p.env = env.State{
		RNG:     envRNG,
		Channel: int(envChannel),
		Slot:    int(envSlot),
		Started: started == 1,
		Jammer:  jamState,
	}
	return p, nil
}

// LoadTraining restores a snapshot written by SaveTraining into the agent
// and environment, both of which must have been built with the same
// configuration as at save time. It returns the restored loop cursor.
func (a *DQNAgent) LoadTraining(r io.Reader, e *env.Environment) (TrainingCursor, error) {
	p, err := readTrainingPrelude(r)
	if err != nil {
		return TrainingCursor{}, err
	}
	if len(p.hist) != 3*a.cfg.HistoryLen {
		return TrainingCursor{}, fmt.Errorf("%w: history has %d values, agent wants %d",
			ErrBadTrainingCheckpoint, len(p.hist), 3*a.cfg.HistoryLen)
	}

	// Restore the learner first: it validates against the agent's config
	// and leaves everything untouched on error, so the env and history are
	// only mutated once the whole stream has decoded.
	if err := a.dqn.LoadState(r); err != nil {
		return TrainingCursor{}, err
	}
	if err := e.SetState(p.env); err != nil {
		return TrainingCursor{}, fmt.Errorf("%w: %v", ErrBadTrainingCheckpoint, err)
	}
	if err := a.hist.SetWindow(p.hist); err != nil {
		return TrainingCursor{}, fmt.Errorf("%w: %v", ErrBadTrainingCheckpoint, err)
	}
	return p.cursor, nil
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
