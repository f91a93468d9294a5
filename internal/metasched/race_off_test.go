//go:build !race

package metasched

const raceEnabled = false
