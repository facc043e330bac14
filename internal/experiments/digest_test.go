package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sweepDigestIDs are the cache-backed panels `ctjam-experiments -id all`
// regenerates through one shared cache: the 20 Fig. 6-8 panels, Table I, its
// seed replication and the jammer-zoo matchup. Between them they drive every
// defense's slot loop (belief, streak, random-walk and stay encoders) against
// every attacker kind (sweep in both power modes, adaptive, reactive and the
// energy budget).
var sweepDigestIDs = append(append([]string(nil), sweepPanelIDs...), "table1-seeds", "matchup")

// TestSweepPanelsDigest pins the formatted output of every sweep panel at
// goldenOptions by SHA-256, so a change to the slot loop, the encoders, the
// jammers or the draw order that moves any number in any panel shows up
// here. Regenerate with
//
//	go test ./internal/experiments -run TestSweepPanelsDigest -update
func TestSweepPanelsDigest(t *testing.T) {
	o := goldenOptions()
	o.Cache = NewCache()
	h := sha256.New()
	for _, id := range sweepDigestIDs {
		res, err := Run(id, o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var buf bytes.Buffer
		if err := Format(&buf, res); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		h.Write(buf.Bytes())
	}
	got := hex.EncodeToString(h.Sum(nil)) + "\n"
	path := filepath.Join("testdata", "golden", "sweep-panels.sha256")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing digest (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("sweep panels digest %s, want %s; run with -update if the change is intended",
			strings.TrimSpace(got), strings.TrimSpace(string(want)))
	}
}
