package ids

import (
	"testing"

	"ctjam/internal/env"
	"ctjam/internal/phy/zigbee"
	"ctjam/internal/policy"
)

func detector(t *testing.T) *Detector {
	t.Helper()
	d, err := NewDetector(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"loss threshold 0", func(c *Config) { c.LossRateThreshold = 0 }},
		{"loss threshold 1", func(c *Config) { c.LossRateThreshold = 1 }},
		{"packet min 0", func(c *Config) { c.PacketEvidenceMin = 0 }},
		{"phantom min 0", func(c *Config) { c.PhantomSyncMin = 0 }},
		{"busy fraction 2", func(c *Config) { c.BusyFractionMin = 2 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if _, err := NewDetector(cfg); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestVerdictString(t *testing.T) {
	wants := map[Verdict]string{
		VerdictClean:               "clean",
		VerdictInterference:        "interference",
		VerdictConventionalJamming: "conventional-jamming",
		VerdictCTJamming:           "ct-jamming",
		Verdict(9):                 "Verdict(9)",
	}
	for v, want := range wants {
		if got := v.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(v), got, want)
		}
	}
}

func TestClassifyTable(t *testing.T) {
	d := detector(t)
	tests := []struct {
		name string
		give Evidence
		want Verdict
	}{
		{
			name: "quiet network",
			give: Evidence{Slots: 100, Losses: 2},
			want: VerdictClean,
		},
		{
			name: "losses with CRC evidence",
			give: Evidence{Slots: 100, Losses: 50, CRCFailures: 10},
			want: VerdictConventionalJamming,
		},
		{
			name: "losses with alien packets",
			give: Evidence{Slots: 100, Losses: 50, AlienPackets: 5},
			want: VerdictConventionalJamming,
		},
		{
			name: "losses with phantom syncs only",
			give: Evidence{Slots: 100, Losses: 50, PhantomSyncs: 12},
			want: VerdictCTJamming,
		},
		{
			name: "losses with busy receiver",
			give: Evidence{Slots: 100, Losses: 50, BusyFraction: 0.9},
			want: VerdictCTJamming,
		},
		{
			name: "losses without any fingerprint",
			give: Evidence{Slots: 100, Losses: 40},
			want: VerdictInterference,
		},
		{
			name: "intermittent conventional jammer below loss threshold",
			give: Evidence{Slots: 100, Losses: 5, CRCFailures: 10},
			want: VerdictConventionalJamming,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := d.Classify(tt.give); got != tt.want {
				t.Fatalf("Classify(%+v) = %v, want %v", tt.give, got, tt.want)
			}
		})
	}
}

func TestEvidenceHelpers(t *testing.T) {
	if (Evidence{}).LossRate() != 0 {
		t.Fatal("empty evidence loss rate")
	}
	a := Evidence{Slots: 50, Losses: 10, BusyFraction: 0.2, CRCFailures: 1}
	b := Evidence{Slots: 50, Losses: 30, BusyFraction: 0.8, PhantomSyncs: 4}
	a.Merge(b)
	if a.Slots != 100 || a.Losses != 40 || a.CRCFailures != 1 || a.PhantomSyncs != 4 {
		t.Fatalf("merge result %+v", a)
	}
	if a.BusyFraction < 0.49 || a.BusyFraction > 0.51 {
		t.Fatalf("merged busy fraction %v, want 0.5", a.BusyFraction)
	}
}

func TestFromReceiverReport(t *testing.T) {
	rep := zigbee.ReceiverReport{
		SymbolsProcessed: 1000,
		PacketsDecoded:   8,
		CRCFailures:      2,
		PhantomSyncs:     1,
		BusySymbols:      600,
	}
	ev := FromReceiverReport(rep, 20, 5, 2, 6)
	if ev.AlienPackets != 2 {
		t.Fatalf("alien packets = %d, want 2", ev.AlienPackets)
	}
	if ev.CRCFailures != 2 || ev.PhantomSyncs != 1 || ev.Slots != 20 {
		t.Fatalf("evidence %+v", ev)
	}
	// More known packets than decoded clips alien at 0.
	if got := FromReceiverReport(rep, 20, 5, 2, 100); got.AlienPackets != 0 {
		t.Fatalf("alien packets = %d, want 0", got.AlienPackets)
	}
}

func TestFromTraceCountsBursts(t *testing.T) {
	mk := func(outcomes ...env.Outcome) []env.SlotRecord {
		out := make([]env.SlotRecord, len(outcomes))
		for i, o := range outcomes {
			out[i] = env.SlotRecord{Slot: i, Outcome: o}
		}
		return out
	}
	s, j := env.OutcomeSuccess, env.OutcomeJammed
	ev := FromTrace(mk(s, j, j, s, j, s, s, j, j, j))
	if ev.Slots != 10 || ev.Losses != 6 {
		t.Fatalf("evidence %+v", ev)
	}
	if ev.LossBursts != 3 {
		t.Fatalf("bursts = %d, want 3", ev.LossBursts)
	}
}

func TestEndToEndCTJStaysInvisibleToPacketLog(t *testing.T) {
	// Drive a static victim through the jamming environment (heavy
	// losses), pair the trace with a phantom-heavy receiver report (what
	// an EmuBee flood produces) and verify the CTJ verdict; the same
	// losses with CRC evidence instead must flip the verdict.
	cfg := env.DefaultConfig()
	cfg.Seed = 41
	e, err := env.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, records, err := env.RunTrace(e, policy.StaticScheme().NewAgent(), 400)
	if err != nil {
		t.Fatal(err)
	}
	ev := FromTrace(records)
	if ev.LossRate() < 0.9 {
		t.Fatalf("static victim loss rate %.2f; scenario broken", ev.LossRate())
	}

	d := detector(t)
	// EmuBee: receiver shows phantom syncs, nothing loggable.
	emu := ev
	emu.Merge(Evidence{PhantomSyncs: 20, BusyFraction: 0.95})
	if got := d.Classify(emu); got != VerdictCTJamming {
		t.Fatalf("EmuBee verdict = %v, want ct-jamming", got)
	}
	// Conventional jammer: CRC failures pile up in the log.
	conv := ev
	conv.Merge(Evidence{CRCFailures: 25})
	if got := d.Classify(conv); got != VerdictConventionalJamming {
		t.Fatalf("conventional verdict = %v, want conventional-jamming", got)
	}
}
