// Command ctjam-experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	ctjam-experiments [-id fig6a] [-scale paper|quick] [-engine mdp|dqn]
//	                  [-workers N] [-csv dir] [-list] [-cache-stats]
//	                  [-cpuprofile FILE] [-memprofile FILE] [-trace FILE]
//	                  [-distribute addr | -worker URL |
//	                   -shards N -shard-index I -spool DIR | -merge -spool DIR]
//
// With -id all (the default) every registered experiment runs in order,
// printing paper-vs-measured tables; -csv additionally writes one CSV per
// experiment into the given directory. Independent sweep points fan out
// over -workers goroutines (default: all cores) with bit-identical results
// at any worker count. All experiments share one sweep-point cache, so the
// 20 metric panels of Figs. 6-8 (and Table I) train and evaluate each unique
// (config, engine, budget) point exactly once; -cache-stats reports the
// reuse on stderr.
//
// Distributed execution (see internal/dist and DESIGN.md) shards those
// unique sweep points across processes, with output bit-identical to a
// single-process run:
//
//	-distribute addr   coordinate: serve work units over HTTP on addr
//	                   (":0" picks a port, reported on stderr), wait for
//	                   workers to return every result, then print the
//	                   experiments from the merged cache. Each unique
//	                   scheme is trained exactly once fleet-wide: the
//	                   coordinator leases train units first, records the
//	                   CTSC checkpoint each one reports as its result, and
//	                   ships it inline with the units evaluating dependent
//	                   points and field runs.
//	-worker URL        work: poll the coordinator at URL (e.g.
//	                   http://host:9077), evaluate assigned units locally,
//	                   report results, exit when the run completes.
//	-shards N -shard-index I -spool DIR
//	                   static mode (no networking): evaluate shard I of a
//	                   round-robin N-way split of the work list and write
//	                   DIR/shard-III-of-NNN.json atomically.
//	-merge -spool DIR  replay a complete spool set from DIR into the
//	                   coordinator's ledger, through the checks a worker's
//	                   report meets, and print the experiments from it.
//	                   Fails unless every shard file is present and
//	                   consistent and every unit, train units included,
//	                   is covered.
//
// Any shard or worker failure exits non-zero.
//
// -cpuprofile, -memprofile and -trace write pprof CPU/heap profiles and a
// runtime execution trace covering the experiment runs, for feeding
// `go tool pprof` / `go tool trace`.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ctjam/internal/dist"
	"ctjam/internal/experiments"
	"ctjam/internal/prof"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ctjam-experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ctjam-experiments", flag.ContinueOnError)
	var (
		id      = fs.String("id", "all", "experiment id (see -list) or 'all'")
		scale   = fs.String("scale", "paper", "budget: 'paper' or 'quick'")
		engine  = fs.String("engine", "mdp", "RL FH engine: 'mdp' (exact policy) or 'dqn' (train per point)")
		csvDir  = fs.String("csv", "", "directory to write per-experiment CSV files")
		list    = fs.Bool("list", false, "list experiment ids and exit")
		seed    = fs.Int64("seed", 1, "random seed")
		workers = fs.Int("workers", 0, "worker goroutines for independent sweep points (0 = all cores, 1 = serial)")
		stats   = fs.Bool("cache-stats", false, "report sweep-point cache reuse on stderr after the runs")
		cpuProf = fs.String("cpuprofile", "", "write a pprof CPU profile of the experiment runs to this file")
		memProf = fs.String("memprofile", "", "write a pprof heap profile to this file at exit")
		trcFile = fs.String("trace", "", "write a runtime execution trace to this file")

		distribute = fs.String("distribute", "", "coordinate a distributed run: serve work units on this addr:port, wait for -worker processes, then print the experiments")
		workerURL  = fs.String("worker", "", "run as a worker for the coordinator at this base URL (e.g. http://host:9077) and exit")
		workerID   = fs.String("worker-id", "", "worker name in protocol requests (default host-pid)")
		shards     = fs.Int("shards", 0, "static sharding: total shard count (requires -shard-index and -spool)")
		shardIndex = fs.Int("shard-index", -1, "static sharding: this process's shard index in [0,shards)")
		spool      = fs.String("spool", "", "static sharding: directory for shard result files")
		merge      = fs.Bool("merge", false, "merge the spool files in -spool, then print the experiments from them")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	modes := 0
	for _, on := range []bool{*distribute != "", *workerURL != "", *shards > 0, *merge} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		return errors.New("-distribute, -worker, -shards and -merge are mutually exclusive")
	}
	if *shards > 0 && (*shardIndex < 0 || *spool == "") {
		return errors.New("-shards requires -shard-index and -spool")
	}
	if *shardIndex >= 0 && *shards <= 0 {
		return errors.New("-shard-index requires -shards")
	}
	if *merge && *spool == "" {
		return errors.New("-merge requires -spool")
	}
	if *spool != "" && *shards <= 0 && !*merge {
		return errors.New("-spool requires -shards or -merge")
	}

	if *workerURL != "" {
		id := *workerID
		if id == "" {
			host, _ := os.Hostname()
			id = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		w := dist.NewWorker(*workerURL, dist.WorkerOptions{ID: id, Workers: *workers})
		n, err := w.Run(context.Background())
		if err != nil {
			return err
		}
		cs := w.CacheStats()
		fmt.Fprintf(os.Stderr, "ctjam-experiments: worker %s evaluated %d units (%d schemes trained here, %d fetched from coordinator)\n",
			id, n, cs.SchemeBuilds, cs.SchemeImports)
		return nil
	}

	if *list {
		for _, eid := range experiments.IDs() {
			desc, err := experiments.Describe(eid)
			if err != nil {
				return err
			}
			fmt.Printf("%-12s %s\n", eid, desc)
		}
		return nil
	}

	opts := experiments.DefaultOptions()
	switch *scale {
	case "paper":
	case "quick":
		opts = experiments.QuickOptions()
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}
	switch *engine {
	case "mdp":
		opts.Engine = experiments.EngineMDP
	case "dqn":
		opts.Engine = experiments.EngineDQN
	default:
		return fmt.Errorf("unknown engine %q", *engine)
	}
	opts.Seed = *seed
	opts.Workers = *workers
	// One cache for the whole invocation: with -id all, the 20 metric
	// panels of Figs. 6-8 and table1 reuse each unique sweep point instead
	// of recomputing it per panel.
	opts.Cache = experiments.NewCache()

	ids := experiments.IDs()
	if *id != "all" {
		ids = []string{*id}
	}

	if *shards > 0 {
		if err := os.MkdirAll(*spool, 0o755); err != nil {
			return err
		}
		path := filepath.Join(*spool, dist.SpoolName(*shardIndex, *shards))
		n, err := dist.RunShard(context.Background(), opts, ids, *shardIndex, *shards, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "ctjam-experiments: shard %d/%d: %d units -> %s\n", *shardIndex, *shards, n, path)
		return nil
	}
	if *merge || *distribute != "" {
		// A merge is a coordinator that replays the spools into its ledger
		// instead of leasing units; both modes import the ledger the same way.
		coord, err := dist.NewCoordinator(opts, ids, dist.CoordinatorOptions{})
		if err != nil {
			return err
		}
		logf := func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "ctjam-experiments: "+format+"\n", a...)
		}
		if *merge {
			err = coord.ReplaySpools(*spool)
		} else {
			err = coord.ListenAndWait(context.Background(), *distribute, logf)
		}
		if err != nil {
			return err
		}
		logf("imported %d units", coord.ImportInto(opts.Cache))
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}
	session, err := prof.Start(*cpuProf, *memProf, *trcFile)
	if err != nil {
		return err
	}
	defer func() {
		if err := session.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "ctjam-experiments: profiling:", err)
		}
	}()
	for _, eid := range ids {
		res, err := experiments.Run(eid, opts)
		if errors.Is(err, experiments.ErrUnknownExperiment) {
			return fmt.Errorf("unknown experiment %q; known ids:\n  %s",
				eid, strings.Join(experiments.IDs(), "\n  "))
		}
		if err != nil {
			return err
		}
		if err := experiments.Format(os.Stdout, res); err != nil {
			return err
		}
		fmt.Println()
		if *csvDir != "" {
			path := filepath.Join(*csvDir, eid+".csv")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := experiments.WriteCSV(f, res); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	if *stats {
		cs := opts.Cache.Stats()
		fmt.Fprintf(os.Stderr, "sweep-point cache: %d unique points computed, %d reused, %d schemes (%d trained here, %d imported)\n",
			cs.PointMisses, cs.PointHits, cs.Schemes, cs.SchemeBuilds, cs.SchemeImports)
		fmt.Fprintf(os.Stderr, "field-run cache: %d unique field runs computed, %d reused\n",
			cs.FieldMisses, cs.FieldHits)
	}
	return nil
}
