//go:build race

package serve

// raceEnabled reports a -race build, whose instrumentation allocates and
// whose sync.Pool drops items at random, so allocation guards skip themselves.
const raceEnabled = true
