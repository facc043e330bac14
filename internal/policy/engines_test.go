package policy_test

import (
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ctjam/internal/policy"
	"ctjam/internal/rl"
)

// End-to-end dual-engine agreement harness over committed checkpoints: for
// every CTJM model under testdata/engines, the fast-engine policy's greedy
// actions must agree with the exact engine's at >= 99.9% across randomized
// state batches, and every disagreement must be an exact-Q near-tie.
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
	engAgreeFloor = 0.999
	engTieGap     = 1e-3 // max exact-Q gap for a tolerated disagreement
)

// engCheckpoints describes the committed models: one briefly-trained
// paper-dims net (structured Q surfaces), one untrained paper-dims net
// (near-uniform Q values — the adversarial case for agreement, since random
// ties are as common as they get), and one with odd hidden widths that land
// on every kernel tail path.
var engCheckpoints = []struct {
	file    string
	seed    int64
	hidden  []int
	observe int // random transitions fed through Observe before saving
}{
	{file: "trained-paper.ctjm", seed: 101, hidden: []int{48, 48}, observe: 1500},
	{file: "random-paper.ctjm", seed: 202, hidden: []int{48, 48}},
	{file: "odd-hidden.ctjm", seed: 303, hidden: []int{31, 17}},
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

func TestEngineActionAgreementCommitted(t *testing.T) {
	stateDim := 3 * engHistoryLen
	actions := engChannels * engPowers
	for _, ck := range engCheckpoints {
		ck := ck
		t.Run(ck.file, func(t *testing.T) {
			snap := loadEngineSnapshot(t, ck.file)
			fast, err := snap.Fast32()
			if err != nil {
				t.Fatal(err)
			}
			exact, err := policy.DQNScheme("exact", snap, engChannels, engPowers, engHistoryLen)
			if err != nil {
				t.Fatal(err)
			}
			fastScheme, err := policy.DQNScheme("fast", fast, engChannels, engPowers, engHistoryLen)
			if err != nil {
				t.Fatal(err)
			}
			if got := exact.Policy().(*policy.DQN).Engine(); got != rl.EngineExact {
				t.Fatalf("exact scheme engine %v", got)
			}
			if got := fastScheme.Policy().(*policy.DQN).Engine(); got != rl.EngineFast32 {
				t.Fatalf("fast scheme engine %v", got)
			}

			rng := rand.New(rand.NewSource(ck.seed + 7))
			const batches, n = 30, 100
			total, agree := 0, 0
			states := make([]float64, n*stateDim)
			exactA := make([]int, n)
			fastA := make([]int, n)
			q := make([]float64, n*actions)
			for b := 0; b < batches; b++ {
				for i := 0; i < n; i++ {
					copy(states[i*stateDim:], engRandState(rng, stateDim))
				}
				if err := exact.Policy().DecideBatch(states, exactA); err != nil {
					t.Fatal(err)
				}
				if err := fastScheme.Policy().DecideBatch(states, fastA); err != nil {
					t.Fatal(err)
				}
				if err := exact.Policy().(*policy.DQN).QValuesBatch(q, states); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					total++
					if exactA[i] == fastA[i] {
						agree++
						continue
					}
					row := q[i*actions : (i+1)*actions]
					gap := math.Abs(row[exactA[i]] - row[fastA[i]])
					if gap > engTieGap {
						t.Fatalf("batch %d state %d: actions %d vs %d with exact-Q gap %v — not a near-tie",
							b, i, exactA[i], fastA[i], gap)
					}
				}
			}
			rate := float64(agree) / float64(total)
			t.Logf("%s: agreement %.5f over %d decisions", ck.file, rate, total)
			if rate < engAgreeFloor {
				t.Fatalf("action agreement %.5f over %d states, want >= %v", rate, total, engAgreeFloor)
			}
		})
	}
}

// TestEngineQValuesCommitted pins the fast engine's Q surfaces to the exact
// engine within the quantization budget on every committed checkpoint, so a
// kernel regression shows up as a numeric diff even when actions happen to
// agree.
func TestEngineQValuesCommitted(t *testing.T) {
	stateDim := 3 * engHistoryLen
	actions := engChannels * engPowers
	for _, ck := range engCheckpoints {
		ck := ck
		t.Run(ck.file, func(t *testing.T) {
			snap := loadEngineSnapshot(t, ck.file)
			fast, err := snap.Fast32()
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(ck.seed + 11))
			const n = 64
			states := make([]float64, n*stateDim)
			for i := 0; i < n; i++ {
				copy(states[i*stateDim:], engRandState(rng, stateDim))
			}
			exactQ := make([]float64, n*actions)
			fastQ := make([]float64, n*actions)
			if err := snap.QValuesBatch(exactQ, states); err != nil {
				t.Fatal(err)
			}
			if err := fast.QValuesBatch(fastQ, states); err != nil {
				t.Fatal(err)
			}
			for i := range exactQ {
				if diff := math.Abs(fastQ[i] - exactQ[i]); diff > 5e-4+5e-4*math.Abs(exactQ[i]) {
					t.Fatalf("q %d: fast %v vs exact %v exceeds budget", i, fastQ[i], exactQ[i])
				}
			}
		})
	}
}
