package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"time"

	"ctjam"
	"ctjam/internal/core"
	"ctjam/internal/env"
)

// trainConfig is the configuration ctjam.TrainDQN builds for cfg and n
// slots, rebuilt here so the traced run can hook TrainRange.
func trainConfig(seed int64, n int) (core.DQNAgentConfig, env.Config) {
	ecfg := env.DefaultConfig()
	ecfg.Seed = seed
	acfg := core.DefaultDQNAgentConfig(ecfg.Channels, len(ecfg.TxPowers), ecfg.SweepWidth)
	acfg.Seed = seed
	acfg.Epsilon.DecaySteps = n * 2 / 3
	return acfg, ecfg
}

// trainOnce runs one ctjam.TrainDQN call, as ctjam-train does, and returns
// the digest of the trained network.
func trainOnce(seed int64, n int) ([32]byte, error) {
	cfg := ctjam.DefaultConfig()
	cfg.Seed = seed
	p, err := ctjam.TrainDQN(cfg, n)
	if err != nil {
		return [32]byte{}, err
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(buf.Bytes()), nil
}

func runTrain(r *run) error {
	n := r.sz.trainSlots
	// Set-up is what TrainDQN builds before its first slot: the agent (the
	// network and replay buffer) and the environment.
	st, err := newSetupTimer(r.sz.setupReps, func() (func() error, error) {
		acfg, ecfg := trainConfig(r.seed, n)
		if _, err := core.NewDQNAgent(acfg); err != nil {
			return nil, err
		}
		_, err := env.New(ecfg)
		return nil, err
	})
	if err != nil {
		return err
	}

	r.attempted++
	want, err := trainOnce(r.seed, n) // warm-up, and the reference network
	if err != nil {
		r.failed++
		return err
	}
	budget := r.halfIfTraced()
	ss, err := repeat(budget, func() error {
		r.attempted++
		got, err := trainOnce(r.seed, n)
		if err != nil {
			r.failed++
			return err
		}
		if got != want {
			r.failed++
			r.fail("train: trained network differs between calls with one seed")
		}
		return nil
	}, st.between)
	if err != nil {
		return err
	}
	r.e2e["setup_s"] = st.median()
	r.report(ss, float64(n))
	if !r.trace {
		return nil
	}

	// The traced half drives the same training through core.DQNAgent
	// directly, so a span can close at every TrainRange hook call.
	var slots []float64
	prof := filepath.Join(r.work, "train.pprof")
	ph, err := startPhase(prof)
	if err != nil {
		return err
	}
	tss, err := repeat(budget, func() error {
		r.attempted++
		acfg, ecfg := trainConfig(r.seed, n)
		agent, err := core.NewDQNAgent(acfg)
		if err != nil {
			return err
		}
		e, err := env.New(ecfg)
		if err != nil {
			return err
		}
		last := time.Now()
		hook := func(int, float64) error {
			now := time.Now()
			slots = append(slots, float64(now.Sub(last).Nanoseconds())/1e3)
			last = now
			return nil
		}
		if _, err := agent.TrainRange(e, 0, n, hook); err != nil {
			r.failed++
			return err
		}
		var buf bytes.Buffer
		if err := agent.SaveModel(&buf); err != nil {
			return err
		}
		if sha256.Sum256(buf.Bytes()) != want {
			r.failed++
			r.fail("train: hooked TrainRange trains a different network than TrainDQN")
		}
		return nil
	}, nil)
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
	r.layer["core.slot_p50_us"] = quantile(slots, 0.5)
	r.layer["core.slot_p99_us"] = quantile(slots, 0.99)
	r.layer["parallel.cpu_util"] = pst.cpuUtil
	r.layer["runtime.gc_cpu_share"] = pst.gcShare
	r.layer["runtime.alloc_kb_per_slot"] = pst.allocBytes / float64(len(slots)) / 1024
	r.layer["trace.overhead"] = overhead(ss, tss)
	if len(slots) != len(tss)*n {
		return fmt.Errorf("train: %d slot spans for %d runs of %d slots", len(slots), len(tss), n)
	}
	return nil
}
