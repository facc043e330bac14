package env

import (
	"fmt"

	"ctjam/internal/metrics"
	"ctjam/internal/rng"
)

// BatchAgent decides for K independent links in lockstep: one call per slot
// gathers every link's previous-slot observation and scatters one decision
// back per link. The batched inference engine (internal/policy) implements
// this by stacking the K encoded states into a single network forward.
type BatchAgent interface {
	// Name identifies the scheme, as in Agent.
	Name() string
	// Len returns K, the number of links the agent was built for.
	Len() int
	// ResetBatch prepares all K per-link states; srcs[i] is link i's
	// private stream (len(srcs) must be Len()).
	ResetBatch(srcs []*rng.Source) error
	// DecideBatch fills out[i] with the decision for link i given prev[i].
	// Both slices have length Len().
	DecideBatch(prev []SlotInfo, out []Decision) error
}

// agentBatch adapts independent per-link Agents to the BatchAgent interface
// by looping over them in index order. Run and RunTrace drive a single agent
// through it, so the serial and lockstep evaluations share batchRun's slot
// loop and Table I counter updates.
type agentBatch struct {
	agents []Agent
}

// Name implements BatchAgent: the wrapped agents share one scheme name in
// practice, so the first agent names the batch.
func (b *agentBatch) Name() string { return b.agents[0].Name() }

// Len implements BatchAgent.
func (b *agentBatch) Len() int { return len(b.agents) }

// ResetBatch implements BatchAgent.
func (b *agentBatch) ResetBatch(srcs []*rng.Source) error {
	if len(srcs) != len(b.agents) {
		return fmt.Errorf("env: agent batch sized for %d links, got %d rngs", len(b.agents), len(srcs))
	}
	for i, a := range b.agents {
		a.Reset(srcs[i])
	}
	return nil
}

// DecideBatch implements BatchAgent.
func (b *agentBatch) DecideBatch(prev []SlotInfo, out []Decision) error {
	if len(prev) != len(b.agents) || len(out) != len(b.agents) {
		return fmt.Errorf("env: agent batch sized for %d links, got %d/%d slots", len(b.agents), len(prev), len(out))
	}
	for i, a := range b.agents {
		out[i] = a.Decide(prev[i])
	}
	return nil
}

// BatchRun steps len(envs) independent environments in lockstep through a
// BatchAgent for the given number of slots, returning per-environment
// Table I counters.
//
// Determinism contract (same as internal/parallel): each link derives its
// agent RNG from its own environment's seed exactly as Run does, so the
// results are bit-identical to len(envs) serial Run calls over the same
// environments, at any batch size. Environments are consumed as-is (not
// reset), matching Run.
func BatchRun(envs []*Environment, a BatchAgent, slots int) ([]metrics.Counters, error) {
	counters, _, err := batchRun(envs, a, slots, false)
	return counters, err
}

// BatchRunTrace is BatchRun plus a per-slot trace for every environment.
func BatchRunTrace(envs []*Environment, a BatchAgent, slots int) ([]metrics.Counters, [][]SlotRecord, error) {
	return batchRun(envs, a, slots, true)
}

func batchRun(envs []*Environment, a BatchAgent, slots int, trace bool) ([]metrics.Counters, [][]SlotRecord, error) {
	k := len(envs)
	if k == 0 {
		return nil, nil, fmt.Errorf("env: batch run needs at least one environment")
	}
	if a.Len() != k {
		return nil, nil, fmt.Errorf("env: batch agent %s sized for %d links, got %d environments", a.Name(), a.Len(), k)
	}
	if slots <= 0 {
		return nil, nil, fmt.Errorf("env: slots %d must be positive", slots)
	}
	// rng.NewSource streams exactly like rand.NewSource, so every agent
	// draws the numbers it drew through a rand.Rand.
	srcs := make([]*rng.Source, k)
	for i, e := range envs {
		srcs[i] = rng.NewSource(e.cfg.Seed + 0x5eed)
	}
	if err := a.ResetBatch(srcs); err != nil {
		return nil, nil, fmt.Errorf("env: batch reset (agent %s): %w", a.Name(), err)
	}

	counters := make([]metrics.Counters, k)
	var records [][]SlotRecord
	if trace {
		records = make([][]SlotRecord, k)
		for i := range records {
			records[i] = make([]SlotRecord, 0, slots)
		}
	}
	prevs := make([]SlotInfo, k)
	decs := make([]Decision, k)
	for i, e := range envs {
		prevs[i] = SlotInfo{First: true, Channel: e.CurrentChannel()}
	}
	// The loop writes each slot's result into res and each link's next
	// observation into prevs[i] field by field: building and assigning whole
	// structs per slot made the CPU reload them from stack copies it could
	// not forward.
	var res StepResult
	for s := 0; s < slots; s++ {
		if err := a.DecideBatch(prevs, decs); err != nil {
			return nil, nil, fmt.Errorf("env: slot %d (agent %s): %w", s, a.Name(), err)
		}
		for i, e := range envs {
			d := decs[i]
			if err := e.step(d.Channel, d.Power, &res); err != nil {
				return nil, nil, fmt.Errorf("env %d slot %d (agent %s): %w", i, s, a.Name(), err)
			}
			if trace {
				records[i] = append(records[i], SlotRecord{
					Slot:     s,
					Channel:  d.Channel,
					Power:    d.Power,
					Outcome:  res.Outcome,
					Hopped:   res.Hopped,
					Reward:   res.Reward,
					JamPower: res.JamPower,
				})
			}
			c := &counters[i]
			c.Slots++
			if res.Outcome.Succeeded() {
				c.Successes++
			}
			if res.Outcome != OutcomeSuccess {
				c.JammedSlots++
			}
			if res.Outcome == OutcomeJammed {
				c.JamLosses++
			}
			if res.Hopped {
				c.Hops++
			}
			if res.UsefulHop {
				c.UsefulHops++
			}
			if d.Power > 0 {
				c.PCSlots++
			}
			if res.UsefulPC {
				c.UsefulPCs++
			}
			p := &prevs[i]
			p.Slot = s + 1
			p.Channel = d.Channel
			p.Power = d.Power
			p.Outcome = res.Outcome
			p.Hopped = res.Hopped
			p.First = false
		}
	}
	return counters, records, nil
}
