//go:build !race

package env

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
