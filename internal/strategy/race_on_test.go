//go:build race

package strategy

// raceEnabled: under the race detector sync.Pool drops a quarter of its Puts
// on purpose, so a generation now and then makes a new candidate list or
// build arena; exact allocation pins do not hold there (CI runs them in a
// step without -race).
const raceEnabled = true
