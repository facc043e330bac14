package mdp

// Hooks for the tests in package mdp_test, which import core (an importer of
// mdp) to check the solver against the paper's model.

// NaiveSolve is the uncompiled reference value iteration.
var NaiveSolve = naiveSolve

// SameSolution compares two solutions bit for bit.
var SameSolution = sameSolution

// CompiledEntry is one outcome of a compiled (state, action) row.
type CompiledEntry struct {
	Next         int
	Prob, Reward float64
}

// CompiledRows compiles m and returns its table as rows[s][a].
func CompiledRows(m Model) ([][][]CompiledEntry, error) {
	t, err := compile(m)
	if err != nil {
		return nil, err
	}
	rows := make([][][]CompiledEntry, t.nS)
	for s := range rows {
		rows[s] = make([][]CompiledEntry, t.nA)
		for a := range rows[s] {
			i := s*t.nA + a
			for _, e := range t.entries[t.off[i]:t.off[i+1]] {
				rows[s][a] = append(rows[s][a], CompiledEntry{Next: e.next, Prob: e.prob, Reward: e.reward})
			}
		}
	}
	return rows, nil
}
