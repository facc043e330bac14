package policy_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ctjam/internal/nn"
	"ctjam/internal/policy"
	"ctjam/internal/rl"
)

// Committed-checkpoint harness: for every CTJM model under testdata/engines,
// the batched inference engine must reproduce the training-time forward pass
// bit for bit, both as raw Q-values and as the DQN policy's greedy actions.
// The models are fixed on disk, so a kernel change that moves a single bit
// fails here even if retraining would move the weights with it.
//
// Regenerate the checkpoints with:
//
//	go test ./internal/policy/ -run TestRegenEngineCheckpoints -regen-engine-checkpoints
var regenEngineCheckpoints = flag.Bool("regen-engine-checkpoints", false,
	"rewrite testdata/engines checkpoints instead of testing against them")

const (
	engHistoryLen = 8  // paper window: stateDim = 3*8 = 24
	engChannels   = 16 // 16 channels x 10 powers = 160 actions
	engPowers     = 10
)

// engCheckpoints describes the committed models: one briefly-trained
// paper-dims net (structured Q surfaces), one untrained paper-dims net
// (near-uniform Q values, so argmax ties are as common as they get), and one
// with odd hidden widths that land on every kernel tail path.
var engCheckpoints = []struct {
	file    string
	seed    int64
	hidden  []int
	observe int    // random transitions fed through Observe before saving
	qDigest string // SHA-256 of TestEngineQValuesCommitted's Q-value bits
}{
	{file: "trained-paper.ctjm", seed: 101, hidden: []int{48, 48}, observe: 1500, qDigest: "1a38d6e6714af88b1f97f5ed961bd5ef255f06a33d57681ddd5899cb8f6835b7"},
	{file: "random-paper.ctjm", seed: 202, hidden: []int{48, 48}, qDigest: "1b8dde68dee729893a8235d4b4789de7636b1aa98915626be43bad49e6ba34d7"},
	{file: "odd-hidden.ctjm", seed: 303, hidden: []int{31, 17}, qDigest: "346da0e3edae0b6f90cff857d787091b7abe941a77b248cbfdcdca0a2736ae48"},
}

func engDir(t *testing.T) string {
	t.Helper()
	return filepath.Join("testdata", "engines")
}

func TestRegenEngineCheckpoints(t *testing.T) {
	if !*regenEngineCheckpoints {
		t.Skip("pass -regen-engine-checkpoints to rewrite testdata/engines")
	}
	dir := engDir(t)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	stateDim := 3 * engHistoryLen
	actions := engChannels * engPowers
	for _, ck := range engCheckpoints {
		cfg := rl.DefaultDQNConfig(stateDim, actions)
		cfg.Hidden = ck.hidden
		cfg.Seed = ck.seed
		d, err := rl.NewDQN(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(ck.seed))
		for i := 0; i < ck.observe; i++ {
			tr := rl.Transition{
				State:  engRandState(rng, stateDim),
				Action: rng.Intn(actions),
				Reward: rng.Float64()*2 - 1,
				Next:   engRandState(rng, stateDim),
				Done:   rng.Intn(50) == 0,
			}
			if _, err := d.Observe(tr); err != nil {
				t.Fatal(err)
			}
		}
		f, err := os.Create(filepath.Join(dir, ck.file))
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Network().Save(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// engRandState draws feature vectors shaped like History encodings: outcome
// in {-1, 0, 0.5, 1}, normalized channel and power in [0, 1].
func engRandState(rng *rand.Rand, dim int) []float64 {
	out := make([]float64, dim)
	outcomes := []float64{-1, 0, 0.5, 1}
	for i := 0; i < dim; i += 3 {
		out[i] = outcomes[rng.Intn(len(outcomes))]
		out[i+1] = float64(rng.Intn(engChannels)) / float64(engChannels-1)
		out[i+2] = float64(rng.Intn(engPowers)) / float64(engPowers-1)
	}
	return out
}

func loadEngineSnapshot(t *testing.T, file string) *rl.Snapshot {
	t.Helper()
	f, err := os.Open(filepath.Join(engDir(t), file))
	if err != nil {
		t.Fatalf("%s: %v (regenerate with -regen-engine-checkpoints)", file, err)
	}
	defer f.Close()
	snap, err := rl.ReadSnapshot(f)
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	return snap
}

// trainingQ evaluates states one at a time through the training-time
// forward pass (per-layer Forward, no batching), the reference the batched
// engine must match.
func trainingQ(t *testing.T, net *nn.Network, states []float64, stateDim int) []float64 {
	t.Helper()
	var q []float64
	for i := 0; i < len(states); i += stateDim {
		x := nn.NewMatrix(1, stateDim)
		copy(x.Data, states[i:i+stateDim])
		out, err := net.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		q = append(q, out.Data...)
	}
	return q
}

func loadEngineNetwork(t *testing.T, file string) *nn.Network {
	t.Helper()
	f, err := os.Open(filepath.Join(engDir(t), file))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	net, err := nn.Load(f)
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	return net
}

// TestEngineActionAgreementCommitted pins the DQN policy's batched greedy
// actions on every committed checkpoint to the argmax of the training-time
// Q-values, with first-maximum tie-breaking, across randomized state
// batches.
func TestEngineActionAgreementCommitted(t *testing.T) {
	stateDim := 3 * engHistoryLen
	actions := engChannels * engPowers
	for _, ck := range engCheckpoints {
		ck := ck
		t.Run(ck.file, func(t *testing.T) {
			snap := loadEngineSnapshot(t, ck.file)
			net := loadEngineNetwork(t, ck.file)
			scheme, err := policy.DQNScheme("exact", snap, engChannels, engPowers, engHistoryLen)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(ck.seed + 7))
			const batches, n = 10, 100
			states := make([]float64, n*stateDim)
			got := make([]int, n)
			for b := 0; b < batches; b++ {
				for i := 0; i < n; i++ {
					copy(states[i*stateDim:], engRandState(rng, stateDim))
				}
				if err := scheme.Policy().DecideBatch(states, got); err != nil {
					t.Fatal(err)
				}
				q := trainingQ(t, net, states, stateDim)
				for i := 0; i < n; i++ {
					row := q[i*actions : (i+1)*actions]
					want := 0
					for a, v := range row {
						if v > row[want] {
							want = a
						}
					}
					if got[i] != want {
						t.Fatalf("batch %d state %d: action %d, training-time argmax %d", b, i, got[i], want)
					}
				}
			}
		})
	}
}

// TestEngineQValuesCommitted pins the batched engine's Q surfaces on every
// committed checkpoint: a 64-state batch must equal the training-time forward
// pass run one state at a time bit for bit, and the SHA-256 of its bits must
// match the committed digest, so a kernel change that moves a single bit
// fails here even when it moves training and inference alike.
func TestEngineQValuesCommitted(t *testing.T) {
	stateDim := 3 * engHistoryLen
	actions := engChannels * engPowers
	for _, ck := range engCheckpoints {
		ck := ck
		t.Run(ck.file, func(t *testing.T) {
			snap := loadEngineSnapshot(t, ck.file)
			net := loadEngineNetwork(t, ck.file)
			rng := rand.New(rand.NewSource(ck.seed + 11))
			const n = 64
			states := make([]float64, n*stateDim)
			for i := 0; i < n; i++ {
				copy(states[i*stateDim:], engRandState(rng, stateDim))
			}
			got := make([]float64, n*actions)
			if err := snap.QValuesBatch(got, states); err != nil {
				t.Fatal(err)
			}
			want := trainingQ(t, net, states, stateDim)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("q %d: batched %v != training-time %v", i, got[i], want[i])
				}
			}
			h := sha256.New()
			for _, v := range got {
				binary.Write(h, binary.LittleEndian, math.Float64bits(v))
			}
			if sum := hex.EncodeToString(h.Sum(nil)); sum != ck.qDigest {
				t.Fatalf("Q-value SHA-256 = %s, want %s", sum, ck.qDigest)
			}
		})
	}
}
