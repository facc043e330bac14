package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ctjam/internal/experiments"
)

// sweepIDs are the cache-backed panels of `ctjam-experiments -id all`: the
// 20 Fig. 6-8 panels, Table I, its seed replication and the jammer-zoo
// matchup. Every other id is PHY Monte-Carlo, field or training work the
// other workloads cover, or is deliberately unmeasured (see NOTES.md).
var sweepIDs = []string{
	"fig6a", "fig6b", "fig6c", "fig6d",
	"fig7a", "fig7b", "fig7c", "fig7d", "fig7e", "fig7f", "fig7g", "fig7h",
	"fig8a", "fig8b", "fig8c", "fig8d", "fig8e", "fig8f", "fig8g", "fig8h",
	"table1", "table1-seeds", "matchup",
}

// sweepOptions is the paper-budget configuration with one fresh cache: a
// new cache per regeneration so every regeneration computes every point.
func sweepOptions(r *run) experiments.Options {
	o := experiments.DefaultOptions()
	o.Slots = r.sz.sweepSlots
	o.Seed = r.seed
	o.Workers = runtime.GOMAXPROCS(0)
	o.Cache = experiments.NewCache()
	return o
}

// panelSpan is the traced view of one experiments.Run call.
type panelSpan struct {
	d    time.Duration
	cold bool // the call computed at least one point
}

// regenerate runs every panel through one fresh cache and returns the
// formatted output. spans, when non-nil, receives one span per panel.
func regenerate(r *run, spans *[]panelSpan) ([]byte, experiments.CacheStats, error) {
	o := sweepOptions(r)
	var out bytes.Buffer
	for _, id := range sweepIDs {
		r.attempted++
		before := o.Cache.Stats().PointMisses
		t := time.Now()
		res, err := experiments.Run(id, o)
		d := time.Since(t)
		if err != nil {
			r.failed++
			return nil, experiments.CacheStats{}, err
		}
		if spans != nil {
			*spans = append(*spans, panelSpan{d: d, cold: o.Cache.Stats().PointMisses > before})
		}
		if err := experiments.Format(&out, res); err != nil {
			return nil, experiments.CacheStats{}, err
		}
	}
	return out.Bytes(), o.Cache.Stats(), nil
}

// checkSweeps checks one regeneration's formatted output against the
// paper's claims the panels must reproduce: Fig. 7(b) shows no power
// control (AP = 0) at any L_J when the jammer uses max power, and the Table
// I setting ranks RL FH > Rand FH > PSV FH on success rate (the matchup's
// sweep#1 row is that setting, and its RL cell is Table I's ST).
func checkSweeps(out []byte) error {
	panels := splitPanels(string(out))
	fig7b, ok := panels["fig7b"]
	if !ok || len(fig7b) < 2 {
		return fmt.Errorf("fig7b panel missing")
	}
	for _, row := range fig7b[1:] {
		if len(row) < 2 {
			return fmt.Errorf("fig7b row %q is short", strings.Join(row, "\t"))
		}
		if ap, err := strconv.ParseFloat(row[1], 64); err != nil || ap != 0 {
			return fmt.Errorf("fig7b: AP in max mode at L_J=%s is %s, want 0", row[0], row[1])
		}
	}
	st := map[string]float64{}
	matchup := panels["matchup"]
	for _, row := range matchup {
		if len(row) == 5 && row[0] == "sweep#1" {
			for i, name := range matchup[0][1:] {
				v, err := strconv.ParseFloat(row[i+1], 64)
				if err != nil {
					return fmt.Errorf("matchup sweep#1 %s: %v", name, err)
				}
				st[name] = v
			}
		}
	}
	if !(st["RL FH"] > st["Rand FH"] && st["Rand FH"] > st["PSV FH"]) {
		return fmt.Errorf("Table I setting: ST RL %.3f, Rand %.3f, PSV %.3f, want RL > Rand > PSV",
			st["RL FH"], st["Rand FH"], st["PSV FH"])
	}
	for _, row := range panels["table1"] {
		if len(row) >= 2 && row[0] == "ST" {
			if v, err := strconv.ParseFloat(row[1], 64); err != nil || v != st["RL FH"] {
				return fmt.Errorf("table1 ST %s differs from the matchup's RL cell %v", row[1], st["RL FH"])
			}
			return nil
		}
	}
	return fmt.Errorf("table1 ST row missing")
}

// splitPanels parses experiments.Format output into each panel's table
// rows (header first), keyed by id.
func splitPanels(text string) map[string][][]string {
	panels := map[string][][]string{}
	var cur string
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, "== "):
			cur, _, _ = strings.Cut(strings.TrimPrefix(line, "== "), ":")
		case strings.HasPrefix(line, "paper: "), line == "", cur == "":
		default:
			panels[cur] = append(panels[cur], strings.Split(line, "\t"))
		}
	}
	return panels
}

func runSweeps(r *run) error {
	// Set-up is what `-id all` pays before its first panel: the options and
	// an empty shared cache. It takes well under a microsecond, so each
	// timing covers a batch of set-ups.
	const batch = 1000
	st, err := newSetupTimer(r.sz.setupReps, func() (func() error, error) {
		for i := 0; i < batch; i++ {
			sweepOptions(r)
		}
		return nil, nil
	})
	if err != nil {
		return err
	}

	// One untimed regeneration lets the heap reach its working size, and
	// gives the reference output every timed one must reproduce.
	ref, _, err := regenerate(r, nil)
	if err != nil {
		return err
	}
	if err := checkSweeps(ref); err != nil {
		r.fail("sweeps: %v", err)
	}
	want := sha256.Sum256(ref)
	var stats experiments.CacheStats // of the latest regeneration
	op := func(spans *[]panelSpan) func() error {
		return func() error {
			out, cs, err := regenerate(r, spans)
			stats = cs
			if err != nil {
				return err
			}
			if sha256.Sum256(out) != want {
				r.failed += int64(len(sweepIDs))
				r.fail("sweeps: formatted output differs between regenerations of one run")
			}
			return nil
		}
	}
	budget := r.halfIfTraced()
	ss, err := repeat(budget, op(nil), st.between)
	if err != nil {
		return err
	}
	r.e2e["setup_s"] = st.median() / batch
	r.report(ss, float64(len(sweepIDs)))
	if !r.trace {
		return nil
	}

	var spans []panelSpan
	prof := filepath.Join(r.work, "sweeps.pprof")
	ph, err := startPhase(prof)
	if err != nil {
		return err
	}
	tss, err := repeat(budget, op(&spans), nil)
	if err != nil {
		return err
	}
	pst, err := ph.stop()
	if err != nil {
		return err
	}
	if err := attribute(r, prof); err != nil {
		return err
	}
	var cold, warm []float64
	for _, s := range spans {
		if s.cold {
			cold = append(cold, s.d.Seconds())
		} else {
			warm = append(warm, s.d.Seconds())
		}
	}
	r.layer["experiments.points_computed"] = float64(stats.PointMisses)
	r.layer["experiments.points_reused"] = float64(stats.PointHits)
	r.layer["experiments.schemes_built"] = float64(stats.SchemeBuilds)
	r.layer["experiments.cold_panel_s"] = median(cold)
	r.layer["experiments.warm_panel_s"] = median(warm)
	r.layer["parallel.cpu_util"] = pst.cpuUtil
	r.layer["runtime.gc_cpu_share"] = pst.gcShare
	r.layer["runtime.alloc_mb_per_panel"] = pst.allocBytes / float64(len(spans)) / (1 << 20)
	r.layer["trace.overhead"] = overhead(ss, tss)
	return nil
}
