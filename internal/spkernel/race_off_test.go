//go:build !race

package spkernel

const raceEnabled = false
