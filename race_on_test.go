//go:build race

package repro_test

// raceEnabled reports a race-detector build, where sync.Pool drops items
// at random and the detector distorts both time and memory, so the gates
// in gates_test.go skip.
const raceEnabled = true
