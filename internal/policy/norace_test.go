//go:build !race

package policy_test

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
