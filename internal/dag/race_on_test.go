//go:build race

package dag

// raceEnabled: under the race detector sync.Pool drops a quarter of its Puts
// on purpose, so exact allocation pins over pooled memory do not hold there
// (CI runs them in a step without -race).
const raceEnabled = true
