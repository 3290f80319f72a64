//go:build !race

package cost

const raceEnabled = false
