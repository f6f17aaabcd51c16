//go:build race

package main

// raceEnabled reports that the race detector is on: it makes sync.Pool
// drop items at random, so allocation counts mean nothing.
const raceEnabled = true
