//go:build race

package scanner

// raceEnabled reports a race-detector build, where sync.Pool drops items
// at random and allocation counts are neither meaningful nor stable.
const raceEnabled = true
