//go:build race

package experiments

// raceEnabled: the race detector slows instrumented code several times over
// and unevenly, so the host-time gates that compare two timings do not hold
// there (CI runs them in a step without -race).
const raceEnabled = true
