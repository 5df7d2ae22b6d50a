//go:build !race

package gpusim

// raceEnabled reports that this binary was built with -race.
const raceEnabled = false
