package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// tinySizes shrink every workload so a smoke run takes about a second.
var tinySizes = sizes{
	sweepSlots:    300,
	trainSlots:    300,
	gatewayBatch:  8,
	fieldClusters: 100,
	fieldNodes:    5,
	fieldSlots:    20,
	setupReps:     3,
}

func tinyRun(t *testing.T, trace bool) *run {
	return &run{seed: 3, dur: time.Second, trace: trace, work: t.TempDir(), sz: tinySizes,
		e2e: map[string]float64{}, layer: map[string]float64{}}
}

func TestParseTop(t *testing.T) {
	b, err := os.ReadFile("testdata/top.txt")
	if err != nil {
		t.Fatal(err)
	}
	top, err := parseTop(string(b))
	if err != nil {
		t.Fatal(err)
	}
	if top.total != 1910 || len(top.rows) != 226 {
		t.Fatalf("total %v ms over %d rows, want 1910 ms over 226", top.total, len(top.rows))
	}
	if a := top.attributed(); a != 1 {
		t.Errorf("a complete listing attributes %v of the profile, want 1", a)
	}
	shares := top.layerShares()
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("layer shares sum to %v, want 1", sum)
	}
	for layer, ms := range map[string]float64{"nn": 350, "json": 700, "rl": 50, "serve": 0} {
		if got := shares[layer] * top.total; math.Abs(got-ms) > 1e-9 {
			t.Errorf("%s self time %v ms, want %v", layer, got, ms)
		}
	}
	if got := top.cumShare(hotFunctions["nn.matmul_cpu_share"]) * top.total; got != 340 {
		t.Errorf("matmul cumulative time %v ms, want 340", got)
	}
}

func TestParseTopRejectsGarbage(t *testing.T) {
	for _, text := range []string{
		"",
		"Showing nodes accounting for 10ms, 100% of 10ms total\n",
		"      flat  flat%   sum%        cum   cum%\n  10xs 1% 1% 10ms 1% f\n",
	} {
		if _, err := parseTop(text); err == nil {
			t.Errorf("parseTop(%q) accepted malformed output", text)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"ctjam/internal/nn.(*Dense).Backward":                 "nn",
		"ctjam/internal/parallel.ForEach[go.shape.int].func1": "parallel",
		"ctjam/internal/fault.(*Injector).Slot":               "other",
		"ctjam.FieldScale":                                    "other",
		"runtime.mallocgc":                                    "runtime",
		"internal/runtime/syscall.Syscall6":                   "runtime",
		"math/rand.(*rngSource).Seed":                         "rand",
		"encoding/json.(*decodeState).object":                 "json",
		"strconv.readFloat":                                   "json",
		"net/http.(*conn).serve":                              "http",
		"internal/poll.(*FD).Read":                            "http",
		"main.runServe":                                       "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestSweepsChecks(t *testing.T) {
	out, _, err := regenerate(tinyRun(t, false), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSweeps(out); err != nil {
		t.Fatalf("a real regeneration fails its check: %v", err)
	}
	text := string(out)
	corrupt := map[string]func(string) string{
		"fig7b AP in max mode": func(s string) string {
			i := strings.Index(s, "== fig7b")
			j := i + strings.Index(s[i:], "\n10\t0\t")
			return s[:j] + "\n10\t5\t" + s[j+len("\n10\t0\t"):]
		},
		"matchup order": func(s string) string {
			i := strings.Index(s, "\nsweep#1\t")
			row := strings.Split(s[i+1:i+1+strings.Index(s[i+1:], "\n")], "\t")
			row[1], row[3] = row[3], row[1]
			return s[:i+1] + strings.Join(row, "\t") + s[i+1+strings.Index(s[i+1:], "\n"):]
		},
		"table1 ST": func(s string) string {
			i := strings.Index(s, "\nST\t")
			return s[:i] + "\nST\t1" + s[i+len("\nST\t")+1:]
		},
	}
	for name, f := range corrupt {
		bad := f(text)
		if bad == text {
			t.Fatalf("%s: corruption changed nothing", name)
		}
		if err := checkSweeps([]byte(bad)); err == nil {
			t.Errorf("%s: corrupted output passes the check", name)
		}
	}
}

func TestTrainDigest(t *testing.T) {
	a, err := trainOnce(3, 300)
	if err != nil {
		t.Fatal(err)
	}
	b, err := trainOnce(3, 300)
	if err != nil {
		t.Fatal(err)
	}
	c, err := trainOnce(4, 300)
	if err != nil {
		t.Fatal(err)
	}
	if a != b || a == c {
		t.Fatalf("digests: same seed equal %v, other seed differs %v", a == b, a != c)
	}
}

func TestServeChecks(t *testing.T) {
	r := tinyRun(t, false)
	in, err := makeServeInputs(r)
	if err != nil {
		t.Fatal(err)
	}
	l, err := startServer(in.model)
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()
	if res := linkPhase(l, in, 100*time.Millisecond); res.failed != 0 || res.units == 0 {
		t.Fatalf("link: %d of %d failed: %v", res.failed, res.ops, res.errs)
	}
	if res := gatewayPhase(l, in, 100*time.Millisecond); res.failed != 0 || res.units == 0 {
		t.Fatalf("gateway: %d of %d failed: %v", res.failed, res.ops, res.errs)
	}
	in.linkWant[0][0]++
	in.gateWant[1][0][0]++
	if res := linkPhase(l, in, 100*time.Millisecond); res.failed == 0 {
		t.Error("link: a wrong expected action went unnoticed")
	}
	if res := gatewayPhase(l, in, 100*time.Millisecond); res.failed == 0 {
		t.Error("gateway: a wrong expected action went unnoticed")
	}
}

func TestCheckGoodput(t *testing.T) {
	if err := checkGoodput([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	for _, g := range [][]float64{{2, 1, 3}, {1, 3, 2}, {1, 1, 1}} {
		if checkGoodput(g) == nil {
			t.Errorf("goodputs %v pass the ordering check", g)
		}
	}
}

// TestSmoke runs every workload at tiny sizes in both modes and checks the
// result line reports exactly the declared metrics.
func TestSmoke(t *testing.T) {
	for name, fn := range workloads {
		for _, trace := range []bool{false, true} {
			r := tinyRun(t, trace)
			res, err := execute(r, fn)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v",
					name, trace, res.Correct, res.Attempted, res.Failed, r.problems)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || (!trace && !(m.Value > 0)) {
					t.Errorf("%s trace=%v: metric %s = %+v", name, trace, d.name, m)
				}
			}
			if trace && res.Metrics["trace.overhead"].Value <= 0 {
				t.Errorf("%s: trace.overhead not measured", name)
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric lists equal to what the
// program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s, the program %s %s",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
}
