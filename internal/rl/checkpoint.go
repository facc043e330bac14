package rl

import (
	"errors"
	"fmt"
	"io"

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
	e := ckpt.NewEncoder(w)
	d.EncodeState(e)
	return e.Close()
}

// EncodeState writes the learner's CTDQ stream into e, for SaveState and
// for the training checkpoint that embeds it.
func (d *DQN) EncodeState(e *ckpt.Encoder) {
	e.Header(stateMagic, stateVersion)
	e.U32(uint32(d.cfg.StateDim))
	e.U32(uint32(d.cfg.NumActions))
	e.U64(uint64(d.envSteps))
	e.U64(uint64(d.trainSteps))
	e.U64(uint64(d.rngSrc.SeedUsed()))
	e.U64(d.rngSrc.State())
	d.online.Encode(e)
	d.target.Encode(e)
	d.opt.SaveAdam(e, d.params)
	// Replay buffer: ring indices plus the live entries in storage order.
	count := d.buffer.Len()
	e.U32(uint32(d.buffer.next))
	e.Bool(d.buffer.full)
	e.U32(uint32(count))
	for _, t := range d.buffer.buf[:count] {
		if len(t.State) != d.cfg.StateDim || len(t.Next) != d.cfg.StateDim {
			e.Fail(fmt.Errorf("rl: transition dims %d/%d, want %d", len(t.State), len(t.Next), d.cfg.StateDim))
			return
		}
		e.F64s(t.State)
		e.F64s(t.Next)
		e.U32(uint32(t.Action))
		e.F64(t.Reward)
		e.Bool(t.Done)
	}
}

// stateHeader is the fixed CTDQ header that opens a learner checkpoint.
type stateHeader struct {
	stateDim, numActions uint32
	envSteps, trainSteps uint64
	rngSeed, rngState    uint64
}

// readStateHeader reads a CTDQ header and checks its magic and version. It
// is the one parser of the header, shared by DecodeState and ReadSnapshot;
// checks against a learner's configuration stay with the caller.
func readStateHeader(dec *ckpt.Decoder) stateHeader {
	dec.Header(stateMagic, stateVersion)
	return stateHeader{
		stateDim: dec.U32(), numActions: dec.U32(),
		envSteps: dec.U64(), trainSteps: dec.U64(),
		rngSeed: dec.U64(), rngState: dec.U64(),
	}
}

// maxRNGState bounds the exploration stream position of a learner whose
// counters read envSteps and trainSteps, so LoadState never replays a
// crafted position. The stream's calls are: construction's Xavier init, one
// Float64 per weight (counting the biases too only loosens the bound); one
// Float64 and at most one Intn per SelectAction, that is per env step plus
// one selection not yet observed; and BatchSize Intn per TrainStep. A call
// takes one generator step unless Float64 or Intn rejects a draw and takes
// another, so twice the call count leaves ample room. With envSteps at most
// 2⁴⁰ nothing here overflows for any batch size a replay buffer can hold.
func (d *DQN) maxRNGState(envSteps, trainSteps uint64) uint64 {
	var weights uint64
	for _, p := range d.params {
		weights += uint64(len(p.Value.Data))
	}
	calls := weights + 2*(envSteps+1) + trainSteps*uint64(d.cfg.BatchSize)
	return 2 * calls
}

// LoadState restores state written by SaveState into d, which must have been
// built with the same DQNConfig. On any error d is left unchanged.
func (d *DQN) LoadState(r io.Reader) error {
	return d.DecodeState(ckpt.NewDecoder(r, ErrBadCheckpoint))
}

// DecodeState reads a CTDQ stream from dec into d, for LoadState and for the
// training checkpoint that embeds it. Its errors wrap ErrBadCheckpoint as
// well as the sentinel dec was made with. On any error d is left unchanged.
func (d *DQN) DecodeState(dec *ckpt.Decoder) error {
	defer dec.Nest(ErrBadCheckpoint)()
	h := readStateHeader(dec)
	if err := dec.Err(); err != nil {
		return err
	}
	if int(h.stateDim) != d.cfg.StateDim || int(h.numActions) != d.cfg.NumActions {
		return dec.Failf("dims %dx%d, learner wants %dx%d",
			h.stateDim, h.numActions, d.cfg.StateDim, d.cfg.NumActions)
	}
	if h.envSteps > 1<<40 || h.trainSteps > h.envSteps {
		return dec.Failf("implausible counters env=%d train=%d", h.envSteps, h.trainSteps)
	}
	if limit := d.maxRNGState(h.envSteps, h.trainSteps); h.rngState > limit {
		return dec.Failf("RNG position %d beyond the %d the counters allow", h.rngState, limit)
	}
	online := nn.Decode(dec)
	target := nn.Decode(dec)
	if err := dec.Err(); err != nil {
		return err
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
		return dec.Failf("online network: %v", err)
	}
	if err := newTarget.CopyWeightsFrom(target); err != nil {
		return dec.Failf("target network: %v", err)
	}
	opt := nn.NewAdam(d.cfg.LearningRate)
	if err := opt.LoadAdam(dec, newOnline.Params()); err != nil {
		return err
	}

	dec.Section("replay buffer")
	next, fullB, count := dec.U32(), dec.U8(), dec.U32()
	capacity := d.buffer.Cap()
	full := fullB != 0
	if int(count) > capacity || int(next) >= capacity || fullB > 1 {
		return dec.Failf("buffer indices count=%d next=%d full=%d cap=%d", count, next, fullB, capacity)
	}
	if (full && int(count) != capacity) || (!full && int(count) != int(next)) {
		return dec.Failf("inconsistent buffer fill count=%d next=%d full=%v", count, next, full)
	}
	buf := make([]Transition, capacity)
	for i := range buf[:count] {
		t := Transition{State: dec.F64s(d.cfg.StateDim), Next: dec.F64s(d.cfg.StateDim)}
		action := dec.U32()
		if int(action) >= d.cfg.NumActions {
			return dec.Failf("action %d out of range [0,%d)", action, d.cfg.NumActions)
		}
		t.Action, t.Reward, t.Done = int(action), dec.F64(), dec.Bool("transition done")
		if err := dec.Err(); err != nil {
			return err
		}
		buf[i] = t
	}

	// All sections decoded: commit.
	d.setOnline(newOnline)
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
