//go:build !race

package jobio

const raceEnabled = false
