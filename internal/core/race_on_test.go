//go:build race

package core

// raceEnabled: under the race detector sync.Pool drops items at random,
// so the tensor arena pools re-allocate and allocation counts mean nothing.
const raceEnabled = true
