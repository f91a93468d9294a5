//go:build race

package jobio

// raceEnabled: the race detector's instrumentation moves values the compiler
// otherwise keeps on the stack to the heap, so ToJob's exact allocation pin
// does not hold there (CI runs it in a step without -race).
const raceEnabled = true
