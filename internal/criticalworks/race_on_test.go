//go:build race

package criticalworks

// raceEnabled: under the race detector sync.Pool drops a quarter of its Puts
// on purpose, so a build now and then makes a new arena; exact allocation
// pins do not hold there (CI runs them in a step without -race).
const raceEnabled = true
