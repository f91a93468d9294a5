//go:build !race

package strategy

const raceEnabled = false
