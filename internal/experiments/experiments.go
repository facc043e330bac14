// Package experiments regenerates every table and figure of the paper's
// evaluation (§II Fig. 2b, §IV Figs. 6-11, Table I, and the §IV-B training
// statistics). Each experiment is a registered runner keyed by the figure
// id; runners return structured results with the paper's reference values
// attached so callers can print paper-vs-measured comparisons.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
)

// ErrUnknownExperiment is returned (wrapped) by Run and Describe for ids
// that are not in the registry; test with errors.Is.
var ErrUnknownExperiment = errors.New("experiments: unknown experiment id")

// Engine selects which implementation of the paper's "RL FH" scheme drives
// the anti-jamming sweeps.
type Engine int

// Engines.
const (
	// EngineMDP plays the exact optimal policy of the solved MDP — the
	// fast default; the learned DQN approximates exactly this policy.
	EngineMDP Engine = iota + 1
	// EngineDQN trains a fresh DQN per sweep point, like the paper.
	// Slower but fully faithful.
	EngineDQN
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case EngineMDP:
		return "mdp"
	case EngineDQN:
		return "dqn"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// Options tune experiment cost and engines.
type Options struct {
	// Slots is the slot-level evaluation length (paper: 20000).
	Slots int
	// Engine selects the RL FH implementation for sweeps.
	Engine Engine
	// TrainSlots is the per-point DQN training budget (EngineDQN only).
	TrainSlots int
	// FieldSlots is the field-simulator run length in Tx slots.
	FieldSlots int
	// Trials is the Monte-Carlo budget for PHY experiments.
	Trials int
	// Seed drives all randomness.
	Seed int64
	// Workers bounds the worker pool used to fan independent sweep /
	// field-simulator points out across cores. <= 0 means all cores
	// (runtime.GOMAXPROCS(0)); 1 forces the serial path. Results are
	// bit-for-bit identical for every worker count: each point derives
	// its randomness from its own config seed and results are collected
	// into slices indexed by point.
	Workers int
	// Cache memoizes per-point training and evaluation. Passing one
	// NewCache() value to several Run calls makes panels that revisit the
	// same (config, engine, budget, seed) points — e.g. the 20 panels of
	// Figs. 6-8, whose 4 sweeps each back 5 metric panels, plus table1 —
	// train and evaluate each unique point exactly once. Results are
	// bit-identical with and without sharing; keys include every budget
	// field, so one cache may serve runs with different options. nil gets
	// a private per-run cache (no cross-run reuse).
	Cache *Cache
	// Context bounds waits on cache entries another goroutine claimed but
	// has not filled yet.
	// When it ends, waiters return its error instead of blocking forever —
	// the safety net against a dead claimant wedging a run. nil means
	// context.Background() (wait indefinitely). It is not part of any
	// memoization key.
	Context context.Context
}

// DefaultOptions mirrors the paper's experiment scale.
func DefaultOptions() Options {
	return Options{
		Slots:      20000,
		Engine:     EngineMDP,
		TrainSlots: 30000,
		FieldSlots: 400,
		Trials:     400,
		Seed:       1,
		Workers:    runtime.GOMAXPROCS(0),
	}
}

// quick reduces budgets for benchmarks and smoke tests.
func (o Options) withFloor() Options {
	if o.Slots <= 0 {
		o.Slots = 2000
	}
	if o.TrainSlots <= 0 {
		o.TrainSlots = 8000
	}
	if o.FieldSlots <= 0 {
		o.FieldSlots = 100
	}
	if o.Trials <= 0 {
		o.Trials = 100
	}
	if o.Engine == 0 {
		o.Engine = EngineMDP
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Cache == nil {
		o.Cache = NewCache()
	}
	if o.Context == nil {
		o.Context = context.Background()
	}
	return o
}

// QuickOptions returns a reduced-budget configuration for smoke tests and
// benchmarks.
func QuickOptions() Options {
	return Options{
		Slots:      3000,
		Engine:     EngineMDP,
		TrainSlots: 6000,
		FieldSlots: 250,
		Trials:     120,
		Seed:       1,
		Workers:    runtime.GOMAXPROCS(0),
	}
}

// Series is one named curve of an experiment result.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Result is the structured output of one experiment.
type Result struct {
	// ID is the registry key ("fig6a").
	ID string
	// Title describes the experiment.
	Title string
	// XLabel / YLabel annotate the axes.
	XLabel string
	YLabel string
	// XTicks optionally labels categorical X positions (bar charts).
	XTicks []string
	// Series holds the measured curves.
	Series []Series
	// PaperNote records what the paper reports for this figure, for the
	// paper-vs-measured comparison in EXPERIMENTS.md.
	PaperNote string
}

// Runner produces a Result.
type Runner func(Options) (*Result, error)

// entry pairs a runner with its description. Cache-backed experiments — the
// Figs. 6-8 sweep panels and Table I, whose work all flows through the
// sweep-point Cache — additionally enumerate their point configs, which is
// what internal/dist shards across worker processes.
type entry struct {
	id     string
	desc   string
	runner Runner
	// points enumerates every sweep point (env config + defense) the runner
	// evaluates through the point cache; nil for experiments whose compute
	// is not cache-backed (PHY Monte-Carlo, field simulator, training).
	points func(Options) []Point
}

// registry holds all experiments in presentation order.
var registry = buildRegistry()

func buildRegistry() []entry {
	var es []entry
	add := func(id, desc string, r Runner) {
		es = append(es, entry{id: id, desc: desc, runner: r})
	}
	addSweep := func(id, desc string, sw sweep, m metric) {
		es = append(es, entry{
			id: id, desc: desc,
			runner: sweepRunner(sw, m),
			points: func(o Options) []Point { return asPoints(sweepConfigs(sw, o)) },
		})
	}
	add("fig2b", "PER & throughput vs jamming distance (analytic SINR model)", runFig2b)
	add("fig2b-wave", "PER vs jamming distance (waveform-level Monte-Carlo)", runFig2bWave)
	add("stealth", "stealthiness of jamming signals at the victim receiver (§II-B)", runStealth)
	add("detect", "IDS verdicts per jamming signal (defender's view of §II-B)", runDetect)
	addSweep("fig6a", "success rate of transmission vs L_J", sweepLJ, metricST)
	addSweep("fig6b", "success rate of transmission vs sweep cycle", sweepCycle, metricST)
	addSweep("fig6c", "success rate of transmission vs L_H", sweepLH, metricST)
	addSweep("fig6d", "success rate of transmission vs lower bound of L^T", sweepLp, metricST)
	addSweep("fig7a", "adoption rate of FH vs L_J", sweepLJ, metricAH)
	addSweep("fig7b", "adoption rate of PC vs L_J", sweepLJ, metricAP)
	addSweep("fig7c", "adoption rate of FH vs sweep cycle", sweepCycle, metricAH)
	addSweep("fig7d", "adoption rate of PC vs sweep cycle", sweepCycle, metricAP)
	addSweep("fig7e", "adoption rate of FH vs L_H", sweepLH, metricAH)
	addSweep("fig7f", "adoption rate of PC vs L_H", sweepLH, metricAP)
	addSweep("fig7g", "adoption rate of FH vs lower bound of L^T", sweepLp, metricAH)
	addSweep("fig7h", "adoption rate of PC vs lower bound of L^T", sweepLp, metricAP)
	addSweep("fig8a", "success rate of FH vs L_J", sweepLJ, metricSH)
	addSweep("fig8b", "success rate of PC vs L_J", sweepLJ, metricSP)
	addSweep("fig8c", "success rate of FH vs sweep cycle", sweepCycle, metricSH)
	addSweep("fig8d", "success rate of PC vs sweep cycle", sweepCycle, metricSP)
	addSweep("fig8e", "success rate of FH vs L_H", sweepLH, metricSH)
	addSweep("fig8f", "success rate of PC vs L_H", sweepLH, metricSP)
	addSweep("fig8g", "success rate of FH vs lower bound of L^T", sweepLp, metricSH)
	addSweep("fig8h", "success rate of PC vs lower bound of L^T", sweepLp, metricSP)
	add("fig9a", "time consumption of typical functions", runFig9a)
	add("fig9b", "FH negotiation time vs network size", runFig9b)
	add("fig10a", "goodput vs Tx timeslot duration", runFig10a)
	add("fig10b", "timeslot utilization vs Tx timeslot duration", runFig10b)
	add("fig11a", "goodput by anti-jamming scheme", runFig11a)
	add("fig11b", "goodput vs jammer timeslot duration", runFig11b)
	add("scale", "field goodput vs network scale (sharded engine)", runScale)
	es = append(es, entry{
		id: "table1", desc: "Table I metrics at the paper's default parameters",
		runner: runTable1,
		points: func(o Options) []Point { return asPoints(table1Configs(o)) },
	})
	es = append(es, entry{
		id: "table1-seeds", desc: "Table I metrics with spread over evaluation seeds",
		runner: runTable1Seeds,
		points: func(o Options) []Point { return asPoints(table1SeedConfigs(o)) },
	})
	es = append(es, entry{
		id: "matchup", desc: "defense scheme ranking across the adversarial jammer zoo",
		runner: runMatchup,
		points: matchupPoints,
	})
	add("train", "DQN training statistics (§IV-B)", runTrain)
	return es
}

// IDs returns all experiment ids in presentation order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// lookup finds the registry entry for an id.
func lookup(id string) (*entry, error) {
	for i := range registry {
		if registry[i].id == id {
			return &registry[i], nil
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownExperiment, id)
}

// Describe returns the one-line description of an experiment id.
func Describe(id string) (string, error) {
	e, err := lookup(id)
	if err != nil {
		return "", err
	}
	return e.desc, nil
}

// Run executes one experiment by id.
func Run(id string, o Options) (*Result, error) {
	o = o.withFloor()
	e, err := lookup(id)
	if err != nil {
		known := strings.Join(IDs(), ", ")
		return nil, fmt.Errorf("%w: %q (known: %s)", ErrUnknownExperiment, id, known)
	}
	res, err := e.runner(o)
	if err != nil {
		return nil, fmt.Errorf("experiment %s: %w", id, err)
	}
	res.ID = id
	return res, nil
}

// Format renders a result as an aligned text table.
func Format(w io.Writer, r *Result) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title); err != nil {
		return err
	}
	if r.PaperNote != "" {
		if _, err := fmt.Fprintf(w, "paper: %s\n", r.PaperNote); err != nil {
			return err
		}
	}
	// Header.
	cols := []string{r.XLabel}
	for _, s := range r.Series {
		cols = append(cols, s.Name)
	}
	if _, err := fmt.Fprintf(w, "%s\n", strings.Join(cols, "\t")); err != nil {
		return err
	}
	n := 0
	for _, s := range r.Series {
		if len(s.X) > n {
			n = len(s.X)
		}
	}
	for i := 0; i < n; i++ {
		row := make([]string, 0, len(r.Series)+1)
		switch {
		case i < len(r.XTicks):
			row = append(row, r.XTicks[i])
		case len(r.Series) > 0 && i < len(r.Series[0].X):
			row = append(row, trimFloat(r.Series[0].X[i]))
		default:
			row = append(row, fmt.Sprintf("%d", i))
		}
		for _, s := range r.Series {
			if i < len(s.Y) {
				row = append(row, trimFloat(s.Y[i]))
			} else {
				row = append(row, "-")
			}
		}
		if _, err := fmt.Fprintf(w, "%s\n", strings.Join(row, "\t")); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV renders a result as CSV with one row per X position.
func WriteCSV(w io.Writer, r *Result) error {
	cols := []string{"x"}
	for _, s := range r.Series {
		cols = append(cols, s.Name)
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	n := 0
	for _, s := range r.Series {
		if len(s.X) > n {
			n = len(s.X)
		}
	}
	for i := 0; i < n; i++ {
		row := make([]string, 0, len(cols))
		switch {
		case i < len(r.XTicks):
			row = append(row, r.XTicks[i])
		case len(r.Series) > 0 && i < len(r.Series[0].X):
			row = append(row, trimFloat(r.Series[0].X[i]))
		default:
			row = append(row, fmt.Sprintf("%d", i))
		}
		for _, s := range r.Series {
			if i < len(s.Y) {
				row = append(row, trimFloat(s.Y[i]))
			} else {
				row = append(row, "")
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.4f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// sortedKeys returns map keys in sorted order (stable output).
func sortedKeys(m map[string][]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
