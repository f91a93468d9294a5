//go:build race

package metasched

// raceEnabled: the race detector's instrumentation moves values the compiler
// otherwise keeps on the stack to the heap, so the exact allocation pins do
// not hold there (CI runs them in a step without -race).
const raceEnabled = true
