//go:build race

package env

// raceEnabled reports a -race build, whose instrumentation allocates, so
// allocation guards skip themselves.
const raceEnabled = true
