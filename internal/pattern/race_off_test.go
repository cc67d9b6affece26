//go:build !race

package pattern

const raceEnabled = false
