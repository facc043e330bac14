package experiments

import (
	"strings"
	"testing"
)

// The paper's headline claims the sweep panels must reproduce, checked at
// quick scale on every test run.

// TestFig7bNoPowerControlInMaxMode: against a max-power jammer raising the
// victim's power never wins the duel, so the MDP policy adopts no power
// control (AP = 0) at any L_J (Fig. 7(b)).
func TestFig7bNoPowerControlInMaxMode(t *testing.T) {
	res := quickRun(t, "fig7b")
	maxMode := seriesByName(t, res, "jam w/ max pwr")
	for i, ap := range maxMode.Y {
		if ap != 0 {
			t.Errorf("AP in max mode at L_J=%v is %v, want 0", maxMode.X[i], ap)
		}
	}
}

// TestMatchupDefenseOrdering: on every attacker of the roster the defenses
// rank RL FH >= Rand FH >= PSV FH >= Static (a starved budget attacker may
// flatten them into ties), and against the paper's sweeper (sweep#1, the
// Table I setting) RL FH > Rand FH > PSV FH strictly. Table I's ST is that
// setting's RL FH cell.
func TestMatchupDefenseOrdering(t *testing.T) {
	o := QuickOptions()
	o.Cache = NewCache()
	res, err := Run("matchup", o)
	if err != nil {
		t.Fatal(err)
	}
	order := []string{"RL FH", "Rand FH", "PSV FH", "Static"}
	st := make([]Series, len(order))
	for i, name := range order {
		st[i] = seriesByName(t, res, name)
	}
	sweep1 := -1
	for x, attacker := range res.XTicks {
		if attacker == "mean" {
			continue
		}
		if attacker == "sweep#1" {
			sweep1 = x
		}
		for i := 1; i < len(order); i++ {
			if hi, lo := st[i-1].Y[x], st[i].Y[x]; hi < lo {
				t.Errorf("%s: %s ST %v below %s ST %v", attacker, order[i-1], hi, order[i], lo)
			}
		}
	}
	if sweep1 < 0 {
		t.Fatalf("matchup roster %v has no sweep#1", res.XTicks)
	}
	rl, rnd, psv := st[0].Y[sweep1], st[1].Y[sweep1], st[2].Y[sweep1]
	if !(rl > rnd && rnd > psv) {
		t.Errorf("sweep#1: ST RL %v, Rand %v, PSV %v, want RL > Rand > PSV", rl, rnd, psv)
	}

	table, err := Run("table1", o)
	if err != nil {
		t.Fatal(err)
	}
	maxMode := seriesByName(t, table, "jam w/ max pwr")
	for i, metric := range table.XTicks {
		if strings.EqualFold(metric, "ST") {
			if maxMode.Y[i] != rl {
				t.Errorf("table1 ST %v differs from the matchup's sweep#1 RL FH cell %v", maxMode.Y[i], rl)
			}
			return
		}
	}
	t.Fatalf("table1 has no ST column (ticks %v)", table.XTicks)
}
