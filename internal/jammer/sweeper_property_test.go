package jammer

import (
	"testing"

	"ctjam/internal/rng"
)

// Property tests for the Sweeper's §II-C sweep-cycle invariants, pinned by
// observing State() around every Step of random victim walks and checking
// each transition against a brute-force reference of the contract:
//
//  1. Each sweep cycle scans every block exactly once before the cycle
//     refills: the remaining-set only ever shrinks by the one block scanned,
//     never repeats a block within a cycle, and refills exactly when empty.
//  2. A lock can only follow a scan hit: the locked flag rises only on a slot
//     whose scanned block equals the victim's block.
//  3. The escape-detection slot never scans: when a locked sweeper notices
//     the victim left, that slot removes nothing from the (freshly refilled)
//     cycle and jams nothing.

// sweepSnap decodes a Sweeper State for the reference checker.
type sweepSnap struct {
	locked    bool
	lockBlock int
	remaining map[int]bool
	count     int
}

func decodeSweep(t *testing.T, st State) sweepSnap {
	t.Helper()
	if st.Kind != KindSweep || len(st.Ints) < 2 {
		t.Fatalf("bad sweep state %+v", st)
	}
	rem := make(map[int]bool, len(st.Ints)-2)
	for _, b := range st.Ints[2:] {
		if rem[int(b)] {
			t.Fatalf("remaining set repeats block %d: %+v", b, st)
		}
		rem[int(b)] = true
	}
	return sweepSnap{
		locked:    st.Ints[0] == 1,
		lockBlock: int(st.Ints[1]),
		remaining: rem,
		count:     len(st.Ints) - 2,
	}
}

// scannedBlock derives which block a sweeping slot scanned from the
// before/after remaining sets, accounting for the refill when the cycle was
// exhausted entering the slot.
func scannedBlock(t *testing.T, before, after sweepSnap, blocks int) int {
	t.Helper()
	pool := before.remaining
	if before.count == 0 {
		// Cycle exhausted: the slot refills to all blocks, then scans one.
		pool = make(map[int]bool, blocks)
		for b := 0; b < blocks; b++ {
			pool[b] = true
		}
	}
	if after.count != len(pool)-1 {
		t.Fatalf("scan slot removed %d blocks, want exactly 1 (before %d, after %d)",
			len(pool)-after.count, len(pool), after.count)
	}
	scanned := -1
	for b := range pool {
		if !after.remaining[b] {
			if scanned != -1 {
				t.Fatalf("scan slot removed two blocks: %d and %d", scanned, b)
			}
			scanned = b
		}
	}
	if scanned == -1 {
		t.Fatal("scan slot removed no block")
	}
	return scanned
}

func TestSweeperCycleInvariants(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		s := newTestSweeper(t, ModeMax, seed)
		blocks := s.Blocks()
		walk := victimWalk(seed+1000, 600)

		// Per-cycle scan tally for invariant 1.
		scannedThisCycle := make(map[int]bool)

		before := decodeSweep(t, s.State())
		for slot, ch := range walk {
			jammed, _, err := s.Step(ch)
			if err != nil {
				t.Fatal(err)
			}
			after := decodeSweep(t, s.State())
			victimBlock, err := s.BlockOf(ch)
			if err != nil {
				t.Fatal(err)
			}

			switch {
			case before.locked && victimBlock == before.lockBlock:
				// Locked and the victim stayed: jam, touch nothing.
				if !jammed {
					t.Fatalf("seed %d slot %d: locked on victim block but not jammed", seed, slot)
				}
				if !after.locked || after.count != before.count {
					t.Fatalf("seed %d slot %d: locked jam slot changed sweep state", seed, slot)
				}
			case before.locked:
				// Invariant 3: the escape-detection slot scans nothing — it
				// unlocks and the next cycle starts full.
				if jammed {
					t.Fatalf("seed %d slot %d: jammed on the escape-detection slot", seed, slot)
				}
				if after.locked {
					t.Fatalf("seed %d slot %d: still locked after victim escaped", seed, slot)
				}
				if after.count != blocks {
					t.Fatalf("seed %d slot %d: escape slot left %d/%d blocks — it must not scan",
						seed, slot, after.count, blocks)
				}
				scannedThisCycle = make(map[int]bool)
			default:
				scanned := scannedBlock(t, before, after, blocks)
				if before.count == 0 {
					// A fresh cycle began this slot.
					scannedThisCycle = make(map[int]bool)
				}
				// Invariant 1: no block scans twice within a cycle.
				if scannedThisCycle[scanned] {
					t.Fatalf("seed %d slot %d: block %d scanned twice in one cycle", seed, slot, scanned)
				}
				scannedThisCycle[scanned] = true
				// Invariant 2: lock if and only if the scan hit the victim.
				if jammed != (scanned == victimBlock) {
					t.Fatalf("seed %d slot %d: jammed=%v but scanned %d, victim in %d",
						seed, slot, jammed, scanned, victimBlock)
				}
				if after.locked != jammed {
					t.Fatalf("seed %d slot %d: locked=%v after jammed=%v scan", seed, slot, after.locked, jammed)
				}
				if jammed && after.lockBlock != victimBlock {
					t.Fatalf("seed %d slot %d: locked to %d, victim in %d", seed, slot, after.lockBlock, victimBlock)
				}
			}
			before = after
		}
	}
}

// TestSweeperCycleScansAllBlocksAgainstStaticVictim is the coverage form of
// the exactly-once property: against a static victim, the pre-lock scans of
// the first cycle are all distinct, all miss the victim's block (or the walk
// would have locked), and the lock lands within one full cycle — so the
// cycle as a whole scans every block exactly once.
func TestSweeperCycleScansAllBlocksAgainstStaticVictim(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		s, err := NewSweeper(20, 4, []float64{20}, ModeMax, rng.NewSource(seed))
		if err != nil {
			t.Fatal(err)
		}
		blocks := s.Blocks()
		seen := make(map[int]bool)
		for slot := 0; slot < blocks; slot++ {
			before := decodeSweep(t, s.State())
			jammed, _, err := s.Step(0)
			if err != nil {
				t.Fatal(err)
			}
			after := decodeSweep(t, s.State())
			b := scannedBlock(t, before, after, blocks)
			if seen[b] {
				t.Fatalf("seed %d: block %d scanned twice in one cycle", seed, b)
			}
			seen[b] = true
			if jammed != (b == 0) {
				t.Fatalf("seed %d slot %d: jammed=%v scanning block %d against a block-0 victim",
					seed, slot, jammed, b)
			}
			if jammed {
				break
			}
		}
		if !s.Locked() {
			t.Fatalf("seed %d: static victim not found within one full cycle", seed)
		}
	}
}
