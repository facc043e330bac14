//go:build race

package rl

// raceEnabled reports a -race build, whose instrumentation allocates, so
// allocation guards skip themselves.
const raceEnabled = true
