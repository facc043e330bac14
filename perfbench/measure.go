package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// sample is what one operation cost: wall-clock time, the process's CPU
// time (all threads, user and system), and the peak resident set in MB
// while it ran.
type sample struct {
	wall, cpu float64 // seconds
	rss       float64
}

type samples []sample

func (ss samples) wall() []float64 { return ss.pick(func(s sample) float64 { return s.wall }) }
func (ss samples) cpu() []float64  { return ss.pick(func(s sample) float64 { return s.cpu }) }
func (ss samples) rss() []float64  { return ss.pick(func(s sample) float64 { return s.rss }) }

func (ss samples) pick(f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// report records the end-to-end metrics of a run's untraced operations,
// each doing units of work: the work per CPU-second, the median peak
// resident set, and (as a per-layer metric) the wall-clock work per second.
func (r *run) report(ss samples, units float64) {
	r.e2e["work_per_cpu_s"] = units / median(ss.cpu())
	r.e2e["peak_rss_mb"] = median(ss.rss())
	r.layer["wall.work_per_s"] = units / median(ss.wall())
}

// overhead is trace.overhead: the CPU time of a traced operation over that
// of an untraced one, by their medians.
func overhead(untraced, traced samples) float64 {
	return median(traced.cpu()) / median(untraced.cpu())
}

// repeat calls op until budget has elapsed, and at least once, and returns
// what each call cost. between, when not nil, runs before each call, outside
// its measurement. It stops early on the first error.
func repeat(budget time.Duration, op, between func() error) (samples, error) {
	var ss samples
	start := time.Now()
	for len(ss) == 0 || time.Since(start) < budget {
		if between != nil {
			if err := between(); err != nil {
				return ss, err
			}
		}
		resetPeakRSS()
		c, t := cpuTime(), time.Now()
		if err := op(); err != nil {
			return ss, err
		}
		ss = append(ss, sample{wall: time.Since(t).Seconds(), cpu: (cpuTime() - c).Seconds(), rss: peakRSSMB()})
	}
	return ss, nil
}

// setupTimer times a workload's set-up many times over a run; setup_s is
// the median. One set-up takes a millisecond or less, and the reference
// host's speed switches between states within seconds (SolveMDP took 2.1 ms
// in one stretch and 3.4 ms in the next), so the timings are spread over
// the whole run: a burst at the start, then a few before every measured
// operation. Every timed call starts from a collected heap.
type setupTimer struct {
	// setup builds what the workload needs before its first result, and
	// returns how to release it (nil when nothing needs releasing); the
	// release is not timed.
	setup func() (release func() error, err error)
	ts    []float64
}

// newSetupTimer makes two untimed set-ups, to fault in the heap, and then
// times first ones.
func newSetupTimer(first int, setup func() (func() error, error)) (*setupTimer, error) {
	s := &setupTimer{setup: setup}
	for i := 0; i < 2; i++ {
		release, err := setup()
		if err == nil && release != nil {
			err = release()
		}
		if err != nil {
			return nil, err
		}
	}
	return s, s.time(first)
}

// time times n more set-ups.
func (s *setupTimer) time(n int) error {
	for i := 0; i < n; i++ {
		runtime.GC()
		t := time.Now()
		release, err := s.setup()
		d := time.Since(t).Seconds()
		if err == nil && release != nil {
			err = release()
		}
		if err != nil {
			return err
		}
		s.ts = append(s.ts, d)
	}
	return nil
}

// between is repeat's hook: setupsPerOp timed set-ups before an operation.
func (s *setupTimer) between() error { return s.time(setupsPerOp) }

// setupsPerOp is how many set-ups are timed before each measured operation.
const setupsPerOp = 10

func (s *setupTimer) median() float64 { return median(s.ts) }

// peakRSSMB is the process's peak resident set (VmHWM) in MB since start or
// the last resetPeakRSS.
func peakRSSMB() float64 {
	kb := procStatusKB("VmHWM:")
	return float64(kb) / 1024
}

// resetPeakRSS sets VmHWM back to the current resident set (Linux's
// clear_refs code 5), so peakRSSMB measures one operation. peak_rss_mb is
// the median of these per-operation peaks: the process-wide peak of a
// small heap depends on when collections happen to land, and moved by a
// fifth between identical runs.
func resetPeakRSS() {
	// Best effort: without it peakRSSMB covers the whole run so far.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func procStatusKB(field string) int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			v, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return v
		}
	}
	return 0
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtime/metrics the traced phases diff.
const (
	mGC      = "/cpu/classes/gc/total:cpu-seconds"
	mUser    = "/cpu/classes/user:cpu-seconds"
	mScav    = "/cpu/classes/scavenge/total:cpu-seconds"
	mAlloc   = "/gc/heap/allocs:bytes"
	mHeapObj = "/memory/classes/heap/objects:bytes"
)

// rtSample is one read of the runtime metrics above.
type rtSample map[string]float64

func readRuntime() rtSample {
	ss := []metrics.Sample{{Name: mGC}, {Name: mUser}, {Name: mScav}, {Name: mAlloc}, {Name: mHeapObj}}
	metrics.Read(ss)
	out := rtSample{}
	for _, s := range ss {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			out[s.Name] = s.Value.Float64()
		case metrics.KindUint64:
			out[s.Name] = float64(s.Value.Uint64())
		}
	}
	return out
}

// phase measures one traced stretch of a workload from outside: wall time,
// process CPU time, runtime/metrics deltas and a CPU profile.
type phase struct {
	start   time.Time
	cpu     time.Duration
	rt      rtSample
	profile *os.File // receiving the CPU profile
}

// phaseStats are the deltas over a finished phase.
type phaseStats struct {
	wall, cpu  time.Duration
	cpuUtil    float64 // process CPU / (wall x GOMAXPROCS)
	gcShare    float64 // GC CPU / (user + GC + scavenge CPU), from runtime/metrics
	allocBytes float64
}

func startPhase(profilePath string) (*phase, error) {
	f, err := os.Create(profilePath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	p := &phase{profile: f}
	runtime.GC() // start every phase from a collected heap
	p.rt = readRuntime()
	p.cpu = cpuTime()
	p.start = time.Now()
	return p, nil
}

func (p *phase) stop() (phaseStats, error) {
	wall := time.Since(p.start)
	cpu := cpuTime() - p.cpu
	rt := readRuntime()
	pprof.StopCPUProfile()
	if err := p.profile.Close(); err != nil {
		return phaseStats{}, err
	}
	d := func(k string) float64 { return rt[k] - p.rt[k] }
	busy := d(mGC) + d(mUser) + d(mScav)
	st := phaseStats{
		wall:       wall,
		cpu:        cpu,
		cpuUtil:    cpu.Seconds() / (wall.Seconds() * float64(runtime.GOMAXPROCS(0))),
		allocBytes: d(mAlloc),
	}
	if busy > 0 {
		st.gcShare = d(mGC) / busy
	}
	return st, nil
}
