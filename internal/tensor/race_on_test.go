//go:build race

package tensor

// raceEnabled: under the race detector sync.Pool drops items at random,
// so the arena pools re-allocate and allocation counts mean nothing.
const raceEnabled = true
