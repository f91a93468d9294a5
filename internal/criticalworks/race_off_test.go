//go:build !race

package criticalworks

const raceEnabled = false
