//go:build !race

package workload

const raceEnabled = false
