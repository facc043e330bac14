// Command perfbench is the repository benchmark. It drives one workload
// in-process through the public entry points of the ctjam packages, checks
// the outputs, and prints one JSON result line:
//
//	perfbench --workload sweeps|train|serve|field --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no instrumentation. With --trace 1 it carries the per-layer metrics: the
// run measures an untraced half (for trace.overhead) and a traced half with
// a CPU profile, runtime/metrics deltas and spans around public calls. See
// NOTES.md for why each workload and metric exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// sizes fixes how much work one operation of each workload does. The paper
// sizes are what the benchmark measures; tests shrink them for smoke runs.
type sizes struct {
	sweepSlots    int // evaluation slots per sweep point (paper: 20000)
	trainSlots    int // slots per TrainDQN call
	gatewayBatch  int // states per gateway request body
	fieldClusters int // clusters in the field (x fieldNodes nodes)
	fieldNodes    int // nodes per cluster
	fieldSlots    int // Tx slots per field run
	setupReps     int // set-ups timed at the start of a run (see setupTimer)
}

var paperSizes = sizes{
	sweepSlots:    20000,
	trainSlots:    2000,
	gatewayBatch:  64,
	fieldClusters: 20000,
	fieldNodes:    5,
	fieldSlots:    40,
	setupReps:     21,
}

// run is the state of one benchmark invocation.
type run struct {
	seed  int64
	dur   time.Duration // measuring budget of the whole run
	trace bool
	work  string // directory for profiles and checkpoints
	sz    sizes

	attempted, failed int64
	problems          []string // failed output checks, reported on stderr

	// e2e holds the end-to-end metrics the workload measured; layer holds
	// the per-layer ones.
	e2e   map[string]float64
	layer map[string]float64
}

// halfIfTraced is the budget of a run's untraced measurement: all of it,
// or the first half when the second half is traced.
func (r *run) halfIfTraced() time.Duration {
	if r.trace {
		return r.dur / 2
	}
	return r.dur
}

// fail records a failed output check.
func (r *run) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(r *run) error{
	"sweeps": runSweeps,
	"train":  runTrain,
	"serve":  runServe,
	"field":  runField,
}

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: sweeps, train, serve or field")
	seed := fs.Int64("seed", 1, "seed all inputs derive from")
	seconds := fs.Float64("seconds", 10, "measuring budget in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end ones")
	work := fs.String("work", ".bench_build/work", "directory for profiles and checkpoints")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fn, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want sweeps, train, serve or field)", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return err
	}
	r := &run{
		seed: *seed, dur: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, work: *work, sz: paperSizes,
		e2e: map[string]float64{}, layer: map[string]float64{},
	}
	res, err := execute(r, fn)
	if err != nil {
		return err
	}
	host, err := json.Marshal(hostStamp())
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "host %s\n", host)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// execute runs one workload and assembles its result line.
func execute(r *run, fn func(r *run) error) (*result, error) {
	if err := fn(r); err != nil {
		return nil, err
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	res := &result{
		Correct:   len(r.problems) == 0 && r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	if r.trace {
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{Value: r.layer[m.name], Unit: m.unit}
		}
		return res, nil
	}
	for _, m := range endToEnd {
		v, ok := r.e2e[m.name]
		if !ok {
			return nil, fmt.Errorf("workload did not measure %s", m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	return res, nil
}

type metricDef struct{ name, unit string }

// endToEnd lists the metrics every untraced run reports. work_per_cpu_s
// counts the workload's own unit of work; see NOTES.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"work_per_cpu_s", "1/s"},
}

// perLayer lists the metrics every traced run reports. A metric of a layer
// the workload never calls reads 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".cpu_share", "share"})
	}
	defs = append(defs,
		metricDef{"nn.matmul_cpu_share", "share"},
		metricDef{"nn.backward_cpu_share", "share"},
		metricDef{"nn.adam_cpu_share", "share"},
		metricDef{"iot.runslot_cpu_share", "share"},
		metricDef{"iot.slotwheel_cpu_share", "share"},
		metricDef{"rand.seed_cpu_share", "share"},
		metricDef{"profile.attributed_share", "share"},
		metricDef{"parallel.cpu_util", "share"},
		metricDef{"runtime.gc_cpu_share", "share"},
		metricDef{"trace.overhead", "ratio"},
		metricDef{"wall.work_per_s", "1/s"},

		metricDef{"experiments.points_computed", "count"},
		metricDef{"experiments.points_reused", "count"},
		metricDef{"experiments.schemes_built", "count"},
		metricDef{"experiments.cold_panel_s", "s"},
		metricDef{"experiments.warm_panel_s", "s"},
		metricDef{"runtime.alloc_mb_per_panel", "MB"},

		metricDef{"core.slot_p50_us", "us"},
		metricDef{"core.slot_p99_us", "us"},
		metricDef{"runtime.alloc_kb_per_slot", "KB"},

		metricDef{"serve.link.decisions_per_s", "1/s"},
		metricDef{"serve.link.client_p50_us", "us"},
		metricDef{"serve.link.client_p99_us", "us"},
		metricDef{"serve.link.server_mean_us", "us"},
		metricDef{"serve.link.batch_mean_fill", "count"},
		metricDef{"serve.link.window_flush_share", "share"},
		metricDef{"serve.link.cpu_util", "share"},
		metricDef{"serve.gateway.json_cpu_share", "share"},
		metricDef{"serve.gateway.http_cpu_share", "share"},
		metricDef{"serve.gateway.nn_cpu_share", "share"},
		metricDef{"serve.gateway.serve_cpu_share", "share"},
		metricDef{"serve.gateway.gc_cpu_share", "share"},
		metricDef{"serve.gateway.client_cpu_share", "share"},
		metricDef{"serve.gateway.alloc_kb_per_request", "KB"},
		metricDef{"serve.gateway.request_p50_us", "us"},
		metricDef{"serve.gateway.request_p99_us", "us"},
		metricDef{"serve.errors", "count"},

		metricDef{"iot.build_s", "s"},
		metricDef{"iot.run_s", "s"},
		metricDef{"policy.decide_s", "s"},
		metricDef{"iot.slot_deliveries", "count"},
		metricDef{"runtime.heap_after_build_mb", "MB"},
		metricDef{"runtime.alloc_b_per_delivery", "B"},
	)
	return defs
}()

// hostStamp identifies the machine a result was measured on.
func hostStamp() map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"kernel":     kernelRelease(),
	}
}
