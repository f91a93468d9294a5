package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// seedRecords are the valid records of the fuzz seed corpora.
var seedRecords = []Record{
	{Job: "a", State: "queued", Strategy: "S1", Priority: 1, Wire: testWire("a")},
	{Job: "a", State: "completed"},
	{Job: "b", State: "rejected", Reason: "shed: displaced under overload"},
}

// FuzzRecoverSegment throws arbitrary bytes at the segment replayer as the
// final (tail) segment: recovery must never panic, and whatever it accepts
// must survive a write-mode Open (torn-tail truncation) followed by a
// second, byte-identical replay.
func FuzzRecoverSegment(f *testing.F) {
	// Valid single records, rendered by the real encoder.
	var enc lineEncoder
	for _, rec := range seedRecords {
		rec.LSN = 1
		line, err := enc.encode(&rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.Clone(line))
	}
	f.Add([]byte(`{"crc":0,"rec":{"lsn":1,"job":"x","state":"queued"}}` + "\n")) // wrong CRC
	f.Add([]byte(`{"crc":12,"rec":` + "\n"))                                     // torn envelope
	f.Add([]byte("\x00\x00half-written"))                                        // garbage tail
	f.Add([]byte(`{"crc":1,"rec":{"lsn":7,"job":"gap","state":"queued"}}` + "\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(segmentPath(dir, 1), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Recover(dir)
		if err != nil {
			return // precise rejection is a valid outcome
		}
		// Whatever replayed must re-replay identically after truncation.
		j, rec2, err := Open(Options{Dir: dir, IsTerminal: terminal})
		if err != nil {
			t.Fatalf("Open rejected what Recover accepted: %v", err)
		}
		defer j.Close()
		if rec2.LastLSN != rec.LastLSN || len(rec2.Jobs) != len(rec.Jobs) {
			t.Fatalf("replay diverged: %+v vs %+v", rec, rec2)
		}
		// Open truncated any torn tail, so a fresh replay must be clean.
		rec3, err := Recover(dir)
		if err != nil {
			t.Fatalf("replay after truncation failed: %v", err)
		}
		if rec3.TornBytes != 0 || rec3.LastLSN != rec.LastLSN {
			t.Fatalf("tail survived truncation: %+v", rec3)
		}
		// Appending after recovery keeps LSN continuity.
		lsn, err := j.Append(Record{Job: "post", State: "queued"})
		if err != nil {
			t.Fatal(err)
		}
		if lsn != rec.LastLSN+1 {
			t.Fatalf("append LSN %d, want %d", lsn, rec.LastLSN+1)
		}
	})
}

// FuzzRecoverDir mixes a valid prefix with a fuzzed tail segment so the
// multi-segment paths (snapshot skip, continuity checks) stay panic-free.
func FuzzRecoverDir(f *testing.F) {
	f.Add([]byte("garbage"))
	f.Add([]byte(`{"crc":3,"rec":{"lsn":3,"job":"c","state":"queued"}}` + "\n"))
	f.Fuzz(func(t *testing.T, tail []byte) {
		dir := t.TempDir()
		j, _, err := Open(Options{Dir: dir, IsTerminal: terminal})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Append(Record{Job: "a", State: "queued", Wire: testWire("a")}); err != nil {
			t.Fatal(err)
		}
		if _, err := j.Append(Record{Job: "a", State: "completed"}); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000003.log"), tail, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Recover(dir)
		if err != nil {
			return
		}
		if rec.LastLSN < 2 {
			t.Fatalf("valid prefix lost: %+v", rec)
		}
	})
}
