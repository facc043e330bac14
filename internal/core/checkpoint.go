package core

import (
	"errors"
	"fmt"
	"io"

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

// encodeJammerState encodes a jammer.State (recursively for wrappers).
func encodeJammerState(e *ckpt.Encoder, st jammer.State) {
	if len(st.Kind) > maxJamKindLen {
		e.Fail(fmt.Errorf("core: jammer kind %q longer than %d bytes", st.Kind, maxJamKindLen))
		return
	}
	if len(st.Ints) > maxJamPayload || len(st.Floats) > maxJamPayload {
		e.Fail(fmt.Errorf("core: jammer state payload too large (%d ints, %d floats)", len(st.Ints), len(st.Floats)))
		return
	}
	e.U32(uint32(len(st.Kind)))
	e.Bytes([]byte(st.Kind))
	e.U32(uint32(len(st.Ints)))
	for _, x := range st.Ints {
		e.U64(uint64(x))
	}
	e.U32(uint32(len(st.Floats)))
	e.F64s(st.Floats)
	e.Bool(st.Inner != nil)
	if st.Inner != nil {
		encodeJammerState(e, *st.Inner)
	}
}

// decodeJammerState decodes an encoding written by encodeJammerState.
func decodeJammerState(d *ckpt.Decoder, depth int) jammer.State {
	if depth > maxJamNesting {
		d.Failf("jammer state nested deeper than %d", maxJamNesting)
		return jammer.State{}
	}
	d.Section("jammer state")
	kindLen := d.U32()
	if kindLen > maxJamKindLen {
		d.Failf("implausible jammer kind length %d", kindLen)
	}
	st := jammer.State{Kind: string(d.Bytes(int(kindLen)))}
	if n := d.U32(); n > maxJamPayload {
		d.Failf("implausible jammer int count %d", n)
	} else if n > 0 {
		st.Ints = d.I64s(int(n))
	}
	if n := d.U32(); n > maxJamPayload {
		d.Failf("implausible jammer float count %d", n)
	} else if n > 0 {
		st.Floats = d.F64s(int(n))
	}
	if d.Bool("jammer inner") {
		inner := decodeJammerState(d, depth+1)
		st.Inner = &inner
	}
	return st
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
	st := e.State()
	enc := ckpt.NewEncoder(w)
	enc.Header(trainMagic, trainVersion)
	enc.U64(uint64(cur.Slot))
	enc.F64(cur.TotalReward)
	enc.U32(uint32(len(a.hist.Window())))
	enc.F64s(a.hist.Window())
	enc.U64(st.RNG)
	enc.U32(uint32(st.Channel))
	enc.U64(uint64(st.Slot))
	enc.Bool(st.Started)
	encodeJammerState(enc, st.Jammer)
	a.dqn.EncodeState(enc)
	return enc.Close()
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
// configuration; in-stream lengths are capped, and the history grows as its
// bytes arrive, so a corrupt stream cannot force a large allocation.
func readTrainingPrelude(d *ckpt.Decoder) trainingPrelude {
	d.Header(trainMagic, trainVersion)
	slot, total, histLen := d.U64(), d.F64(), d.U32()
	if slot > 1<<40 {
		d.Failf("implausible slot %d", slot)
	}
	if histLen > 1<<20 {
		d.Failf("implausible history length %d", histLen)
	}
	p := trainingPrelude{cursor: TrainingCursor{Slot: int(slot), TotalReward: total}}
	d.Section("history")
	p.hist = d.F64s(int(histLen))
	d.Section("environment")
	p.env = env.State{RNG: d.U64(), Channel: int(d.U32())}
	envSlot := d.U64()
	p.env.Started = d.Bool("started")
	if envSlot > 1<<40 {
		d.Failf("implausible env slot %d", envSlot)
	}
	p.env.Slot = int(envSlot)
	p.env.Jammer = decodeJammerState(d, 1)
	return p
}

// LoadTraining restores a snapshot written by SaveTraining into the agent
// and environment, both of which must have been built with the same
// configuration as at save time. It returns the restored loop cursor.
func (a *DQNAgent) LoadTraining(r io.Reader, e *env.Environment) (TrainingCursor, error) {
	d := ckpt.NewDecoder(r, ErrBadTrainingCheckpoint)
	p := readTrainingPrelude(d)
	if err := d.Err(); err != nil {
		return TrainingCursor{}, err
	}
	if len(p.hist) != 3*a.cfg.HistoryLen {
		return TrainingCursor{}, d.Failf("history has %d values, agent wants %d", len(p.hist), 3*a.cfg.HistoryLen)
	}

	// Restore the learner first: it validates against the agent's config
	// and leaves everything untouched on error, so the env and history are
	// only mutated once the whole stream has decoded.
	if err := a.dqn.DecodeState(d); err != nil {
		return TrainingCursor{}, err
	}
	if err := e.SetState(p.env); err != nil {
		return TrainingCursor{}, d.Failf("%v", err)
	}
	if err := a.hist.SetWindow(p.hist); err != nil {
		return TrainingCursor{}, d.Failf("%v", err)
	}
	return p.cursor, nil
}
