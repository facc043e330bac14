package rl

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"ctjam/internal/nn"
	"ctjam/internal/rng"
)

// DQNConfig parameterizes a DQN learner. The defaults in DefaultDQNConfig
// mirror the paper's setup: a 4-layer fully-connected network whose input is
// the last I slots of (state, channel, power) and whose output is one
// Q-value per (channel, power) action.
type DQNConfig struct {
	// StateDim is the observation vector length (3*I in the paper).
	StateDim int
	// NumActions is the number of discrete actions (C*PL in the paper).
	NumActions int
	// Hidden sizes the two hidden layers.
	Hidden []int
	// Gamma is the discount factor.
	Gamma float64
	// LearningRate feeds the Adam optimizer.
	LearningRate float64
	// BatchSize is the replay minibatch size.
	BatchSize int
	// BufferCapacity is the replay buffer size.
	BufferCapacity int
	// WarmupSize is the minimum buffer fill before training starts.
	WarmupSize int
	// TargetSyncEvery is the number of training steps between target
	// network synchronizations.
	TargetSyncEvery int
	// Epsilon is the exploration schedule.
	Epsilon EpsilonSchedule
	// DoubleDQN selects actions with the online network and evaluates
	// them with the target network (van Hasselt et al.), reducing the
	// max-operator's overestimation bias. Plain DQN when false.
	DoubleDQN bool
	// Seed seeds the network initialization and exploration RNG.
	Seed int64
}

// DefaultDQNConfig returns the configuration used throughout the
// reproduction.
func DefaultDQNConfig(stateDim, numActions int) DQNConfig {
	return DQNConfig{
		StateDim:        stateDim,
		NumActions:      numActions,
		Hidden:          []int{48, 48},
		Gamma:           0.9,
		LearningRate:    1e-3,
		BatchSize:       32,
		BufferCapacity:  20000,
		WarmupSize:      500,
		TargetSyncEvery: 250,
		Epsilon:         EpsilonSchedule{Start: 1.0, End: 0.02, DecaySteps: 8000},
		Seed:            1,
	}
}

// DQN is a Deep Q-Network learner with uniform replay and a target network.
type DQN struct {
	cfg    DQNConfig
	online *nn.Network
	target *nn.Network
	opt    *nn.Adam
	buffer *ReplayBuffer
	rng    *rand.Rand
	rngSrc *rng.Source

	envSteps   int
	trainSteps int

	// params caches online.Params() for TrainStep (see setOnline).
	params []*nn.Param

	// Reusable buffers for the QValues / TrainStep hot paths.
	stateBuf *nn.Matrix
	batch    []Transition
	states   nn.Matrix
	nexts    nn.Matrix
	tdTarget nn.Matrix
	grad     nn.Matrix
	nextSel  []int
}

// NewDQN builds the learner.
func NewDQN(cfg DQNConfig) (*DQN, error) {
	if cfg.StateDim <= 0 || cfg.NumActions <= 0 {
		return nil, fmt.Errorf("rl: invalid dimensions state=%d actions=%d", cfg.StateDim, cfg.NumActions)
	}
	if !(cfg.Gamma >= 0 && cfg.Gamma < 1) {
		return nil, fmt.Errorf("rl: gamma %v must be in [0,1)", cfg.Gamma)
	}
	if !(cfg.LearningRate > 0) || math.IsInf(cfg.LearningRate, 1) {
		return nil, fmt.Errorf("rl: learning rate %v must be positive and finite", cfg.LearningRate)
	}
	if cfg.BatchSize <= 0 {
		return nil, fmt.Errorf("rl: batch size %d must be positive", cfg.BatchSize)
	}
	if cfg.BatchSize > cfg.BufferCapacity {
		// The buffer never holds a full batch, so training never starts.
		return nil, fmt.Errorf("rl: batch size %d exceeds replay capacity %d", cfg.BatchSize, cfg.BufferCapacity)
	}
	if err := cfg.Epsilon.validate(); err != nil {
		return nil, err
	}
	if len(cfg.Hidden) == 0 {
		return nil, errors.New("rl: at least one hidden layer required")
	}
	random, src := rng.New(cfg.Seed)
	sizes := append([]int{cfg.StateDim}, cfg.Hidden...)
	sizes = append(sizes, cfg.NumActions)
	online, err := nn.NewMLP(sizes, random)
	if err != nil {
		return nil, fmt.Errorf("rl: build online network: %w", err)
	}
	target, err := online.Clone()
	if err != nil {
		return nil, fmt.Errorf("rl: build target network: %w", err)
	}
	buffer, err := NewReplayBuffer(cfg.BufferCapacity)
	if err != nil {
		return nil, err
	}
	d := &DQN{
		cfg:    cfg,
		target: target,
		opt:    nn.NewAdam(cfg.LearningRate),
		buffer: buffer,
		rng:    random,
		rngSrc: src,
	}
	d.setOnline(online)
	return d, nil
}

// setOnline installs net as the online network and caches its parameter
// list, so TrainStep does not rebuild it on every update.
func (d *DQN) setOnline(net *nn.Network) {
	d.online = net
	d.params = net.Params()
}

// Network exposes the online network (e.g. for serialization).
func (d *DQN) Network() *nn.Network { return d.online }

// SetNetwork replaces the online and target networks (e.g. after loading a
// saved model). net must have the configured architecture: same layers,
// same weight and bias shapes.
func (d *DQN) SetNetwork(net *nn.Network) error {
	if got, want := layerShapes(net), layerShapes(d.online); got != want {
		return fmt.Errorf("rl: network layers [%s] do not match the configured [%s]", got, want)
	}
	clone, err := net.Clone()
	if err != nil {
		return err
	}
	d.setOnline(net)
	d.target = clone
	return nil
}

// layerShapes describes net's layers, e.g. "24x48 relu 48x160" for dense
// weight shapes with 1 x out biases between ReLUs; any other bias shape is
// spelled out after its weights.
func layerShapes(net *nn.Network) string {
	parts := make([]string, len(net.Layers))
	for i, l := range net.Layers {
		switch l := l.(type) {
		case *nn.Dense:
			w, b := l.W.Value, l.B.Value
			parts[i] = fmt.Sprintf("%dx%d", w.Rows, w.Cols)
			if b.Rows != 1 || b.Cols != w.Cols {
				parts[i] += fmt.Sprintf("+bias%dx%d", b.Rows, b.Cols)
			}
		case *nn.ReLU:
			parts[i] = "relu"
		default:
			parts[i] = fmt.Sprintf("%T", l)
		}
	}
	return strings.Join(parts, " ")
}

// EnvSteps returns the number of transitions observed.
func (d *DQN) EnvSteps() int { return d.envSteps }

// TrainSteps returns the number of gradient updates performed.
func (d *DQN) TrainSteps() int { return d.trainSteps }

// Epsilon returns the current exploration rate.
func (d *DQN) Epsilon() float64 { return d.cfg.Epsilon.Value(d.envSteps) }

// QValues evaluates the online network on one state. The returned slice is a
// view into the network's output buffer and is valid only until the next
// QValues / SelectAction / Observe call; copy it to keep the values.
func (d *DQN) QValues(state []float64) ([]float64, error) {
	if len(state) != d.cfg.StateDim {
		return nil, fmt.Errorf("rl: state has %d dims, want %d", len(state), d.cfg.StateDim)
	}
	if d.stateBuf == nil {
		d.stateBuf = nn.NewMatrix(1, d.cfg.StateDim)
	}
	d.stateBuf.Reshape(1, d.cfg.StateDim) // QValuesBatch may have widened it
	copy(d.stateBuf.Data, state)
	out, err := d.online.Forward(d.stateBuf)
	if err != nil {
		return nil, err
	}
	return out.RowView(0), nil
}

// QValuesBatch evaluates the online network on n stacked states (states must
// hold n*StateDim values, row-major) and returns the n x NumActions Q matrix.
// Like QValues, the returned matrix is network-owned scratch, valid only
// until the learner's next forward pass. For a concurrent-safe inference
// path use Snapshot.
func (d *DQN) QValuesBatch(states []float64) (*nn.Matrix, error) {
	if len(states) == 0 || len(states)%d.cfg.StateDim != 0 {
		return nil, fmt.Errorf("rl: batch of %d values is not a multiple of state dim %d", len(states), d.cfg.StateDim)
	}
	n := len(states) / d.cfg.StateDim
	if d.stateBuf == nil {
		d.stateBuf = nn.NewMatrix(n, d.cfg.StateDim)
	}
	d.stateBuf.Reshape(n, d.cfg.StateDim)
	copy(d.stateBuf.Data, states)
	return d.online.Forward(d.stateBuf)
}

// Snapshot clones the online network's weights into an immutable
// inference-only Snapshot (no Adam moments, no replay buffer, no exploration
// state) that is safe for concurrent readers.
func (d *DQN) Snapshot() (*Snapshot, error) {
	net, err := d.online.Clone()
	if err != nil {
		return nil, err
	}
	return NewSnapshot(net)
}

// SelectAction picks an action epsilon-greedily. With probability 1-eps it
// returns argmax Q(s, .); otherwise a uniformly random other action, as in
// the paper's exploration rule.
func (d *DQN) SelectAction(state []float64) (int, error) {
	q, err := d.QValues(state)
	if err != nil {
		return 0, err
	}
	best := argmax(q)
	eps := d.Epsilon()
	if d.rng.Float64() >= eps || d.cfg.NumActions == 1 {
		return best, nil
	}
	// Explore: uniform over the other NumActions-1 actions.
	a := d.rng.Intn(d.cfg.NumActions - 1)
	if a >= best {
		a++
	}
	return a, nil
}

// GreedyAction returns argmax Q(s, .) without exploration.
func (d *DQN) GreedyAction(state []float64) (int, error) {
	q, err := d.QValues(state)
	if err != nil {
		return 0, err
	}
	return argmax(q), nil
}

// Observe stores a transition and, once warmed up, performs one training
// step. It returns the training loss (0 when no step was taken).
func (d *DQN) Observe(t Transition) (float64, error) {
	if len(t.State) != d.cfg.StateDim || len(t.Next) != d.cfg.StateDim {
		return 0, fmt.Errorf("rl: transition dims %d/%d, want %d", len(t.State), len(t.Next), d.cfg.StateDim)
	}
	if t.Action < 0 || t.Action >= d.cfg.NumActions {
		return 0, fmt.Errorf("rl: action %d out of range", t.Action)
	}
	d.buffer.Push(t)
	d.envSteps++
	if d.buffer.Len() < d.cfg.WarmupSize || d.buffer.Len() < d.cfg.BatchSize {
		return 0, nil
	}
	return d.TrainStep()
}

// TrainStep samples a minibatch and performs one Q-learning update:
// target = r + gamma * max_a' Q_target(s', a') (or r for terminal
// transitions); only the taken action's output receives gradient.
func (d *DQN) TrainStep() (float64, error) {
	batch, err := d.buffer.Sample(d.batch, d.cfg.BatchSize, d.rng)
	if err != nil {
		return 0, err
	}
	d.batch = batch
	n := len(batch)
	states, nexts := &d.states, &d.nexts
	states.Reshape(n, d.cfg.StateDim)
	nexts.Reshape(n, d.cfg.StateDim)
	for i, t := range batch {
		copy(states.Data[i*d.cfg.StateDim:], t.State)
		copy(nexts.Data[i*d.cfg.StateDim:], t.Next)
	}

	nextQ, err := d.target.Forward(nexts)
	if err != nil {
		return 0, err
	}
	// Double DQN: the online network picks the next action, the target
	// network scores it. The online net's output buffer is reused by its
	// next Forward call, so extract the argmax selections before running
	// the prediction pass below.
	var nextSel []int
	if d.cfg.DoubleDQN {
		nextOnline, err := d.online.Forward(nexts)
		if err != nil {
			return 0, err
		}
		if cap(d.nextSel) < n {
			d.nextSel = make([]int, n)
		}
		nextSel = d.nextSel[:n]
		for i := range nextSel {
			nextSel[i] = argmax(nextOnline.Data[i*d.cfg.NumActions : (i+1)*d.cfg.NumActions])
		}
	}
	pred, err := d.online.Forward(states)
	if err != nil {
		return 0, err
	}

	// Build the TD targets; entries for non-taken actions copy the
	// prediction so they contribute zero gradient.
	target := &d.tdTarget
	target.Reshape(pred.Rows, pred.Cols)
	copy(target.Data, pred.Data)
	for i, t := range batch {
		y := t.Reward
		if !t.Done {
			row := nextQ.Data[i*d.cfg.NumActions : (i+1)*d.cfg.NumActions]
			if d.cfg.DoubleDQN {
				y += float64(d.cfg.Gamma * row[nextSel[i]])
			} else {
				best := math.Inf(-1)
				for _, v := range row {
					if v > best {
						best = v
					}
				}
				y += float64(d.cfg.Gamma * best)
			}
		}
		target.Set(i, t.Action, y)
	}

	loss, err := nn.MSELoss(&d.grad, pred, target)
	if err != nil {
		return 0, err
	}
	for _, p := range d.params {
		p.ZeroGrad()
	}
	if err := d.online.Backward(&d.grad); err != nil {
		return 0, err
	}
	if err := d.opt.Step(d.params); err != nil {
		return 0, err
	}

	d.trainSteps++
	if d.cfg.TargetSyncEvery > 0 && d.trainSteps%d.cfg.TargetSyncEvery == 0 {
		if err := d.target.CopyWeightsFrom(d.online); err != nil {
			return 0, err
		}
	}
	return loss, nil
}

func argmax(x []float64) int {
	best, bestV := 0, math.Inf(-1)
	for i, v := range x {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}
