//go:build !race

package cloudlens

const raceEnabled = false
