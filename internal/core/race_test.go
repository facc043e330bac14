//go:build race

package core

// raceEnabled reports a -race build, whose instrumentation allocates, so
// allocation guards skip themselves.
const raceEnabled = true
