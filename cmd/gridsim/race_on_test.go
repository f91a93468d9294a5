//go:build race

package main

// raceEnabled: the race detector slows the paper-scale record several times
// over, so TestRecordMatchesResultsFull runs in CI's coverage step, without it.
const raceEnabled = true
