package rl

import (
	"math"
	"testing"
)

func TestNewQTableValidation(t *testing.T) {
	eps := EpsilonSchedule{Start: 1, End: 0.1, DecaySteps: 100}
	tests := []struct {
		name            string
		states, actions int
		alpha, gamma    float64
	}{
		{"zero states", 0, 2, 0.1, 0.9},
		{"zero actions", 2, 0, 0.1, 0.9},
		{"alpha 0", 2, 2, 0, 0.9},
		{"alpha > 1", 2, 2, 1.5, 0.9},
		{"gamma 1", 2, 2, 0.1, 1},
		{"gamma < 0", 2, 2, 0.1, -0.1},
		{"alpha NaN", 2, 2, math.NaN(), 0.9},
		{"gamma NaN", 2, 2, 0.1, math.NaN()},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewQTable(tt.states, tt.actions, tt.alpha, tt.gamma, eps, 1); err == nil {
				t.Fatal("expected error")
			}
		})
	}
	t.Run("epsilon NaN", func(t *testing.T) {
		if _, err := NewQTable(2, 2, 0.1, 0.9, EpsilonSchedule{Start: math.NaN()}, 1); err == nil {
			t.Fatal("expected error")
		}
	})
}

func TestQTableBoundsChecks(t *testing.T) {
	q, err := NewQTable(3, 2, 0.1, 0.9, EpsilonSchedule{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Q(3, 0); err == nil {
		t.Fatal("bad state: expected error")
	}
	if _, err := q.Q(0, 2); err == nil {
		t.Fatal("bad action: expected error")
	}
	if _, err := q.SelectAction(-1); err == nil {
		t.Fatal("bad state select: expected error")
	}
	if err := q.Update(0, 0, 1, 5, false); err == nil {
		t.Fatal("bad next state: expected error")
	}
}

func TestQTableSingleUpdate(t *testing.T) {
	q, err := NewQTable(2, 2, 0.5, 0.9, EpsilonSchedule{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Terminal update: Q(0,1) += 0.5*(10 - 0) = 5.
	if err := q.Update(0, 1, 10, 1, true); err != nil {
		t.Fatal(err)
	}
	got, err := q.Q(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-5) > 1e-12 {
		t.Fatalf("Q(0,1) = %v, want 5", got)
	}
	if q.Steps() != 1 {
		t.Fatalf("steps = %d", q.Steps())
	}
}

func TestQTableBootstrapUsesNextMax(t *testing.T) {
	q, err := NewQTable(2, 2, 1.0, 0.5, EpsilonSchedule{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Seed Q(1, 0) = 4 via a terminal update with alpha 1.
	if err := q.Update(1, 0, 4, 0, true); err != nil {
		t.Fatal(err)
	}
	// Non-terminal update from state 0: target = 2 + 0.5*4 = 4.
	if err := q.Update(0, 0, 2, 1, false); err != nil {
		t.Fatal(err)
	}
	got, err := q.Q(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-4) > 1e-12 {
		t.Fatalf("Q(0,0) = %v, want 4", got)
	}
}

func TestQTableLearnsDeterministicChain(t *testing.T) {
	// Chain: state 0 --action 1--> state 1 --action 0--> terminal +1.
	// Action 0 in state 0 terminates with 0 reward.
	eps := EpsilonSchedule{Start: 1, End: 0.05, DecaySteps: 2000}
	q, err := NewQTable(2, 2, 0.2, 0.9, eps, 2)
	if err != nil {
		t.Fatal(err)
	}
	for ep := 0; ep < 3000; ep++ {
		a0, err := q.SelectAction(0)
		if err != nil {
			t.Fatal(err)
		}
		if a0 == 0 {
			if err := q.Update(0, 0, 0, 0, true); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := q.Update(0, 1, 0, 1, false); err != nil {
			t.Fatal(err)
		}
		a1, err := q.SelectAction(1)
		if err != nil {
			t.Fatal(err)
		}
		r := 0.0
		if a1 == 0 {
			r = 1
		}
		if err := q.Update(1, a1, r, 0, true); err != nil {
			t.Fatal(err)
		}
	}
	g0, err := q.GreedyAction(0)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := q.GreedyAction(1)
	if err != nil {
		t.Fatal(err)
	}
	if g0 != 1 || g1 != 0 {
		t.Fatalf("greedy policy (%d,%d), want (1,0)", g0, g1)
	}
	// Q(0,1) should approach gamma*1 = 0.9.
	v, err := q.Q(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-0.9) > 0.1 {
		t.Fatalf("Q(0,1) = %v, want ~0.9", v)
	}
}
