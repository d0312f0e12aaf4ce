//go:build race

package spkernel

// raceEnabled reports that the race detector is on: sync.Pool then drops
// a quarter of its Puts on purpose, so pooled-scratch paths allocate.
const raceEnabled = true
