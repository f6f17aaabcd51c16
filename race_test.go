//go:build race

package cloudlens

// raceEnabled reports that the race detector is on: it makes sync.Pool
// drop items at random, so allocation totals mean nothing.
const raceEnabled = true
