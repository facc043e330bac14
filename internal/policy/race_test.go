//go:build race

package policy_test

// raceEnabled reports a -race build, whose instrumentation allocates, so
// allocation guards skip themselves.
const raceEnabled = true
