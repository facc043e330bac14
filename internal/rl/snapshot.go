package rl

import (
	"bufio"
	"fmt"
	"io"
	"sync"

	"ctjam/internal/ckpt"
	"ctjam/internal/nn"
)

// Snapshot is an immutable, inference-only view of a trained Q network: just
// the weights, none of the learner state (Adam moments, replay buffer,
// exploration RNG). The network is never mutated after construction and all
// per-call buffers come from an internal pool, so one Snapshot may serve any
// number of concurrent QValuesBatch/GreedyBatch callers — this is what the
// batched inference engine and ctjam-serve hand out per request.
type Snapshot struct {
	net        *nn.Network
	stateDim   int
	numActions int
	pool       sync.Pool // *inferBuffers
}

type inferBuffers struct {
	in      nn.Matrix // header only: Data aliases the caller's states per call
	out     nn.Matrix
	scratch nn.InferScratch
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
	dec := ckpt.NewDecoder(br, ErrBadCheckpoint)
	h := readStateHeader(dec)
	net := nn.Decode(dec)
	if err := dec.Err(); err != nil {
		return nil, err
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
