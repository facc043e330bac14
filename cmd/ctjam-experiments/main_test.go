package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleExperimentWithCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-id", "fig9a", "-scale", "quick", "-csv", dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig9a.csv")); err != nil {
		t.Fatalf("CSV not written: %v", err)
	}
}

func TestRunValidation(t *testing.T) {
	if err := run([]string{"-scale", "gigantic"}); err == nil {
		t.Fatal("expected bad-scale error")
	}
	if err := run([]string{"-engine", "quantum"}); err == nil {
		t.Fatal("expected bad-engine error")
	}
	err := run([]string{"-id", "figZZ", "-scale", "quick"})
	if err == nil {
		t.Fatal("expected unknown-id error")
	}
	// The unknown-id error should carry usage help: the known ids.
	if !strings.Contains(err.Error(), "fig6a") || !strings.Contains(err.Error(), "table1") {
		t.Fatalf("unknown-id error does not list known ids: %v", err)
	}
}

func TestRunModeValidation(t *testing.T) {
	cases := [][]string{
		{"-distribute", ":0", "-worker", "http://x"},
		{"-distribute", ":0", "-merge"},
		{"-worker", "http://x", "-shards", "2", "-shard-index", "0", "-spool", "d"},
		{"-shards", "2"},      // missing -shard-index and -spool
		{"-shard-index", "0"}, // missing -shards
		{"-merge"},            // missing -spool
		{"-spool", "d"},       // missing -shards or -merge
		{"-shards", "2", "-shard-index", "5", "-spool", "d"}, // index out of range
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) accepted an invalid mode combination", args)
		}
	}
}

func TestRunStaticShardRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, idx := range []string{"0", "1"} {
		if err := run([]string{"-id", "table1", "-scale", "quick", "-shards", "2", "-shard-index", idx, "-spool", dir}); err != nil {
			t.Fatalf("shard %s: %v", idx, err)
		}
	}
	if err := run([]string{"-id", "table1", "-scale", "quick", "-merge", "-spool", dir}); err != nil {
		t.Fatalf("merge: %v", err)
	}
	// An incomplete spool set must fail the merge, not silently recompute.
	if err := os.Remove(filepath.Join(dir, "shard-001-of-002.json")); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-id", "table1", "-scale", "quick", "-merge", "-spool", dir}); err == nil {
		t.Fatal("merge of an incomplete shard set succeeded")
	}
}

func TestRunWorkersFlag(t *testing.T) {
	for _, w := range []string{"1", "4"} {
		if err := run([]string{"-id", "fig10a", "-scale", "quick", "-workers", w}); err != nil {
			t.Fatalf("workers=%s: %v", w, err)
		}
	}
}

// cacheStats runs the command with -cache-stats, its stdout discarded, and
// returns the four scheme counts of the stderr report: schemes held, and of
// them trained here, imported and baselines.
func cacheStats(t *testing.T, args ...string) [4]int {
	t.Helper()
	dir := t.TempDir()
	stdout, stderr := os.Stdout, os.Stderr
	outF, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	errF, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout, os.Stderr = outF, errF
	err = run(append(args, "-cache-stats"))
	os.Stdout, os.Stderr = stdout, stderr
	outF.Close()
	errF.Close()
	if err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	report, err := os.ReadFile(errF.Name())
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(\d+) schemes \((\d+) trained here, (\d+) imported, (\d+) baselines\)`).FindSubmatch(report)
	if m == nil {
		t.Fatalf("run %v: no scheme counts in stderr:\n%s", args, report)
	}
	var n [4]int
	for i := range n {
		n[i], _ = strconv.Atoi(string(m[i+1]))
	}
	return n
}

// TestRunCacheStatsAddUp checks that the -cache-stats scheme counts add up
// — trained here + imported + baselines = schemes — in a single-process run,
// which trains every scheme, and in a -merge, which imports them all.
func TestRunCacheStatsAddUp(t *testing.T) {
	quick := []string{"-id", "all", "-scale", "quick"}
	single := cacheStats(t, quick...)
	if single[0] != single[1]+single[2]+single[3] || single[2] != 0 || single[3] == 0 {
		t.Errorf("single process: %d schemes, %d trained, %d imported, %d baselines", single[0], single[1], single[2], single[3])
	}

	dir := t.TempDir()
	for _, idx := range []string{"0", "1", "2"} {
		if err := run(append(quick, "-shards", "3", "-shard-index", idx, "-spool", dir)); err != nil {
			t.Fatalf("shard %s: %v", idx, err)
		}
	}
	merged := cacheStats(t, append(quick, "-merge", "-spool", dir)...)
	if merged[0] != merged[1]+merged[2]+merged[3] || merged[1] != 0 || merged[2] != single[1] {
		t.Errorf("merge: %d schemes, %d trained, %d imported, %d baselines; want the %d schemes the single process trained imported",
			merged[0], merged[1], merged[2], merged[3], single[1])
	}
}
