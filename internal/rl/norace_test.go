//go:build !race

package rl

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
