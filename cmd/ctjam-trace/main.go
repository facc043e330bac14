// Command ctjam-trace runs an anti-jamming scheme through the slot-level
// environment and exports the per-slot trace (channel, power, outcome,
// reward) as CSV — the raw material for channel-usage plots and policy
// debugging.
//
// Usage:
//
//	ctjam-trace [-slots 2000] [-scheme mdp|passive|random|static]
//	            [-mode max|random] [-out trace.csv] [-seed 1]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"ctjam/internal/core"
	"ctjam/internal/env"
	"ctjam/internal/ids"
	"ctjam/internal/jammer"
	"ctjam/internal/policy"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ctjam-trace:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ctjam-trace", flag.ContinueOnError)
	var (
		slots  = fs.Int("slots", 2000, "slots to trace")
		scheme = fs.String("scheme", "mdp", "scheme: mdp, passive, random or static")
		mode   = fs.String("mode", "max", "jammer power mode")
		out    = fs.String("out", "", "CSV output path (default: stdout)")
		seed   = fs.Int64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := env.DefaultConfig()
	cfg.Seed = *seed
	switch *mode {
	case "max":
		cfg.JammerMode = jammer.ModeMax
	case "random":
		cfg.JammerMode = jammer.ModeRandom
	default:
		return fmt.Errorf("unknown jammer mode %q", *mode)
	}

	sch, err := buildScheme(*scheme, cfg)
	if err != nil {
		return err
	}
	e, err := env.New(cfg)
	if err != nil {
		return err
	}
	counters, records, err := env.RunTrace(e, sch.NewAgent(), *slots)
	if err != nil {
		return err
	}

	var w io.Writer = stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "slot,channel,power,outcome,hopped,reward,jam_power"); err != nil {
		return err
	}
	for _, r := range records {
		hopped := "0"
		if r.Hopped {
			hopped = "1"
		}
		if _, err := fmt.Fprintf(bw, "%d,%d,%d,%s,%s,%s,%s\n",
			r.Slot, r.Channel, r.Power, r.Outcome,
			hopped,
			strconv.FormatFloat(r.Reward, 'f', -1, 64),
			strconv.FormatFloat(r.JamPower, 'f', -1, 64)); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}

	ev := ids.FromTrace(records)
	fmt.Fprintf(os.Stderr, "traced %d slots: %s; loss bursts: %d\n",
		counters.Slots, counters.String(), ev.LossBursts)
	return nil
}

func buildScheme(scheme string, cfg env.Config) (*policy.Scheme, error) {
	switch scheme {
	case "mdp":
		model, err := core.NewModel(core.ParamsFromEnv(cfg))
		if err != nil {
			return nil, err
		}
		a, err := core.NewMDPAgent(model, nil, cfg.Channels, cfg.SweepWidth)
		if err != nil {
			return nil, err
		}
		return a.Scheme(), nil
	case "passive":
		return policy.PassiveFHScheme(cfg.Channels, cfg.SweepWidth, core.DefaultJamThreshold)
	case "random":
		return policy.RandomFHScheme(cfg.Channels, cfg.SweepWidth, len(cfg.TxPowers))
	case "static":
		return policy.StaticScheme(), nil
	default:
		return nil, fmt.Errorf("unknown scheme %q", scheme)
	}
}
