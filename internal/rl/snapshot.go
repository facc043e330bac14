package rl

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sync"

	"ctjam/internal/ckpt"
	"ctjam/internal/nn"
)

// Engine identifies the numeric engine a Snapshot evaluates on.
type Engine int

const (
	// EngineExact is the default float64 path, bit-identical to the
	// training-time forward pass — the reference every golden trace pins.
	EngineExact Engine = iota
	// EngineFast32 is the opt-in float32 fast path (FMA microkernels on
	// amd64, pure-Go float32 otherwise): roughly half the memory traffic and
	// double the SIMD lanes, equivalent to the exact engine only within the
	// tolerance and policy-action agreement budgets its test harness
	// enforces.
	EngineFast32
)

func (e Engine) String() string {
	switch e {
	case EngineExact:
		return "exact"
	case EngineFast32:
		return "fast32"
	default:
		return fmt.Sprintf("engine(%d)", int(e))
	}
}

// Snapshot is an immutable, inference-only view of a trained Q network: just
// the weights, none of the learner state (Adam moments, replay buffer,
// exploration RNG). The network is never mutated after construction and all
// per-call buffers come from an internal pool, so one Snapshot may serve any
// number of concurrent QValuesBatch/GreedyBatch callers — this is what the
// batched inference engine and ctjam-serve hand out per request. Fast32
// derives a view of the same weights on the float32 fast engine.
type Snapshot struct {
	net        *nn.Network
	q32        *nn.Net32 // set iff engine == EngineFast32
	engine     Engine
	stateDim   int
	numActions int
	pool       sync.Pool // *inferBuffers
}

type inferBuffers struct {
	in      nn.Matrix // header only: Data aliases the caller's states per call
	out     nn.Matrix
	scratch nn.InferScratch

	// Fast-engine buffers: states quantize into st32 (float32 staging), and
	// in32 is again just a header over it.
	st32      []float32
	in32      nn.Matrix32
	out32     nn.Matrix32
	scratch32 nn.InferScratch32
}

// NewSnapshot wraps a network as an inference snapshot, deriving the state
// and action dimensions from its first and last Dense layers. The caller
// must not mutate net afterwards.
func NewSnapshot(net *nn.Network) (*Snapshot, error) {
	var first, last *nn.Dense
	for _, l := range net.Layers {
		if d, ok := l.(*nn.Dense); ok {
			if first == nil {
				first = d
			}
			last = d
		}
	}
	if first == nil {
		return nil, fmt.Errorf("rl: snapshot network has no dense layers")
	}
	s := &Snapshot{
		net:        net,
		stateDim:   first.W.Value.Rows,
		numActions: last.W.Value.Cols,
	}
	s.pool.New = func() any { return new(inferBuffers) }
	return s, nil
}

// Fast32 returns a view of the snapshot that evaluates on the float32 fast
// engine. The view shares the source weights (quantized once, here) but has
// its own buffer pool; the original snapshot keeps serving the exact engine
// untouched, and either view stays safe for concurrent use. Calling Fast32
// on a fast-engine snapshot returns it unchanged.
func (s *Snapshot) Fast32() (*Snapshot, error) {
	if s.engine == EngineFast32 {
		return s, nil
	}
	q32, err := s.net.Quantize32()
	if err != nil {
		return nil, fmt.Errorf("rl: fast32 snapshot: %w", err)
	}
	ns := &Snapshot{
		net:        s.net,
		q32:        q32,
		engine:     EngineFast32,
		stateDim:   s.stateDim,
		numActions: s.numActions,
	}
	ns.pool.New = func() any { return new(inferBuffers) }
	return ns, nil
}

// Engine reports which numeric engine this snapshot evaluates on.
func (s *Snapshot) Engine() Engine { return s.engine }

// StateDim returns the observation vector length the snapshot expects.
func (s *Snapshot) StateDim() int { return s.stateDim }

// NumActions returns the number of Q outputs per state.
func (s *Snapshot) NumActions() int { return s.numActions }

// ParamCount returns the number of network parameters.
func (s *Snapshot) ParamCount() int { return s.net.ParamCount() }

// QValuesBatch evaluates n stacked states (states holds n*StateDim values,
// row-major) and writes the n*NumActions Q-values into dst. Safe for
// concurrent use. The states slice is read in place (never copied or
// mutated); the caller must not modify it until the call returns.
func (s *Snapshot) QValuesBatch(dst, states []float64) error {
	n, err := s.batchSize(states)
	if err != nil {
		return err
	}
	if len(dst) != n*s.numActions {
		return fmt.Errorf("rl: q buffer has %d values, want %d", len(dst), n*s.numActions)
	}
	bufs := s.pool.Get().(*inferBuffers)
	defer s.pool.Put(bufs)
	if s.engine == EngineFast32 {
		out, err := s.forward32(bufs, states, n)
		if err != nil {
			return err
		}
		for i, v := range out.Data {
			dst[i] = float64(v)
		}
		return nil
	}
	out, err := s.forward(bufs, states, n)
	if err != nil {
		return err
	}
	copy(dst, out.Data)
	return nil
}

// GreedyBatch evaluates n = len(actions) stacked states and writes
// argmax_a Q(s_i, a) into actions[i]. Safe for concurrent use; like
// QValuesBatch it reads states in place, so the caller must not modify the
// slice until the call returns. With equal weights this is bit-identical to
// n single-state GreedyAction calls on the source learner.
func (s *Snapshot) GreedyBatch(actions []int, states []float64) error {
	n, err := s.batchSize(states)
	if err != nil {
		return err
	}
	if len(actions) != n {
		return fmt.Errorf("rl: %d action slots for %d states", len(actions), n)
	}
	bufs := s.pool.Get().(*inferBuffers)
	defer s.pool.Put(bufs)
	if s.engine == EngineFast32 {
		out, err := s.forward32(bufs, states, n)
		if err != nil {
			return err
		}
		for i := range actions {
			actions[i] = argmax32(out.Data[i*s.numActions : (i+1)*s.numActions])
		}
		return nil
	}
	out, err := s.forward(bufs, states, n)
	if err != nil {
		return err
	}
	for i := range actions {
		actions[i] = argmax(out.Data[i*s.numActions : (i+1)*s.numActions])
	}
	return nil
}

func (s *Snapshot) batchSize(states []float64) (int, error) {
	if len(states) == 0 || len(states)%s.stateDim != 0 {
		return 0, fmt.Errorf("rl: batch of %d values is not a multiple of state dim %d", len(states), s.stateDim)
	}
	return len(states) / s.stateDim, nil
}

func (s *Snapshot) forward(bufs *inferBuffers, states []float64, n int) (*nn.Matrix, error) {
	// Zero-copy admission: ForwardBatch only ever reads its input (the dense
	// and ReLU kernels write to caller scratch), so the pooled input matrix
	// aliases the caller's states instead of staging a copy. The alias is
	// dropped before the buffers go back to the pool so a recycled buffer
	// never pins a caller's slice.
	bufs.in.Rows, bufs.in.Cols, bufs.in.Data = n, s.stateDim, states[:n*s.stateDim]
	err := s.net.ForwardBatch(&bufs.out, &bufs.scratch, &bufs.in)
	bufs.in.Data = nil
	if err != nil {
		return nil, err
	}
	return &bufs.out, nil
}

// forward32 is the fast-engine forward: states quantize into a pooled
// float32 staging buffer (the one conversion the engine boundary costs),
// then run the quantized network. Unlike the exact path there is no aliasing
// of caller memory, so nothing needs dropping before pool reuse.
func (s *Snapshot) forward32(bufs *inferBuffers, states []float64, n int) (*nn.Matrix32, error) {
	need := n * s.stateDim
	if cap(bufs.st32) < need {
		bufs.st32 = make([]float32, need)
	}
	st := bufs.st32[:need]
	for i, v := range states[:need] {
		st[i] = float32(v)
	}
	bufs.st32 = st
	bufs.in32.Rows, bufs.in32.Cols, bufs.in32.Data = n, s.stateDim, st
	if err := s.q32.ForwardBatch32(&bufs.out32, &bufs.scratch32, &bufs.in32); err != nil {
		return nil, err
	}
	return &bufs.out32, nil
}

// argmax32 is argmax for the fast engine's float32 Q rows, with the same
// first-maximum tie-breaking as the exact path's argmax.
func argmax32(x []float32) int {
	best := 0
	bestV := float32(math.Inf(-1))
	for i, v := range x {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// ReadSnapshot loads an inference snapshot from either of the rl-owned
// on-disk formats, sniffed by magic: a bare CTJM model stream (nn.Save) or a
// CTDQ learner checkpoint (DQN.SaveState), from which only the online
// network is read — target weights, Adam moments and replay are skipped.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	br := bufio.NewReader(r)
	magic, err := ckpt.PeekMagic(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if magic != stateMagic {
		// nn.Load rejects non-CTJM magics itself.
		net, err := nn.Load(br)
		if err != nil {
			return nil, err
		}
		return NewSnapshot(net)
	}
	h, err := readStateHeader(br)
	if err != nil {
		return nil, err
	}
	net, err := nn.Load(br)
	if err != nil {
		return nil, fmt.Errorf("%w: online network: %v", ErrBadCheckpoint, err)
	}
	s, err := NewSnapshot(net)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if s.stateDim != int(h.stateDim) || s.numActions != int(h.numActions) {
		return nil, fmt.Errorf("%w: network shape does not match header dims %dx%d",
			ErrBadCheckpoint, h.stateDim, h.numActions)
	}
	return s, nil
}
