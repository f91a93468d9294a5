package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"

	"repro/internal/jobio"
)

// encodeRecordRef is the encoder the journal shipped before records were
// encoded in place: marshal, format the prefix, copy both into a line. It is
// the byte-equality reference for lineEncoder — a journal written by either
// must be readable as the other's.
func encodeRecordRef(rec *Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("journal: encode: %w", err)
	}
	crc := crc32.ChecksumIEEE(payload)
	line := make([]byte, 0, len(payload)+24)
	line = append(line, fmt.Sprintf(`{"crc":%d,"rec":`, crc)...)
	line = append(line, payload...)
	line = append(line, '}', '\n')
	return line, nil
}

// checkEncodesAsReference renders rec with enc and with the reference and
// fails unless the lines are byte-equal and decode back to rec.
func checkEncodesAsReference(t *testing.T, enc *lineEncoder, rec Record) {
	t.Helper()
	want, err := encodeRecordRef(&rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := enc.encode(&rec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("line differs from the reference\n got %q\nwant %q", got, want)
	}
	// Strings need not survive (json.Marshal replaces invalid UTF-8); the
	// envelope, its CRC and the numbers must.
	back, err := decodeRecord(got[:len(got)-1])
	if err != nil {
		t.Fatalf("encoded line does not decode: %v\n%q", err, got)
	}
	if back.LSN != rec.LSN || back.Priority != rec.Priority || back.Epoch != rec.Epoch || (back.Wire == nil) != (rec.Wire == nil) {
		t.Fatalf("round trip changed the record: %+v → %+v", rec, back)
	}
}

// TestEncodeRecordMatchesReference holds the in-place encoder to the
// reference, byte for byte, over the property test's record generator, the
// fuzz seed records, and the CRC widths the right-aligned prefix has to
// cope with — all through one encoder, so a line never leaks into the next.
func TestEncodeRecordMatchesReference(t *testing.T) {
	var enc lineEncoder
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			rec := randomRecord(rng)
			rec.LSN = uint64(rng.Int63())
			if rng.Intn(4) == 0 {
				rec.Shard, rec.Epoch = fmt.Sprintf("s%d", rng.Intn(3)), rng.Intn(5)
			}
			checkEncodesAsReference(t, &enc, rec)
		}
	}
	for _, rec := range seedRecords {
		rec.LSN = 1
		checkEncodesAsReference(t, &enc, rec)
	}
	// Escaped, multi-byte and empty strings: what json.Marshal rewrites.
	for _, s := range []string{"", "<a&b>", "line\nbreak", " ", "naïve — ✓", "\xff\xfe", `"quoted\"`} {
		checkEncodesAsReference(t, &enc, Record{LSN: 7, Job: s, State: "queued", Reason: s, Wire: testWire(s)})
	}
	// Every CRC width from 1 to 10 digits must show up, or the prefix
	// arithmetic was only tested where it is easy.
	widths := map[int]bool{}
	for i := 0; len(widths) < 10 && i < 1<<22; i++ {
		rec := Record{LSN: uint64(i), Job: "w", State: "queued"}
		ref, _ := encodeRecordRef(&rec)
		w := bytes.IndexByte(ref, ',') - len(lineCRCKey)
		if !widths[w] {
			widths[w] = true
			checkEncodesAsReference(t, &enc, rec)
		}
	}
	for w := 6; w <= 10; w++ {
		if !widths[w] {
			t.Errorf("no record with a %d-digit CRC was tried", w)
		}
	}
}

// FuzzEncodeRecordMatchesReference is the same equality over fuzzed field
// values: whatever strings and numbers a record carries, the in-place line
// is the reference's.
func FuzzEncodeRecordMatchesReference(f *testing.F) {
	for _, rec := range seedRecords {
		f.Add(uint64(1), rec.Job, rec.State, rec.Reason, rec.Strategy, rec.Priority, "", 0, rec.Wire != nil, int64(60))
	}
	f.Add(uint64(1<<63), "j\x00", "handed", "<&> ", "MS1", -3, "s1", 9, true, int64(-1))
	var enc lineEncoder
	f.Fuzz(func(t *testing.T, lsn uint64, job, state, reason, strategy string, priority int, shard string, epoch int, wire bool, deadline int64) {
		rec := Record{LSN: lsn, Job: job, State: state, Reason: reason, Strategy: strategy,
			Priority: priority, Shard: shard, Epoch: epoch}
		if wire {
			rec.Wire = &jobio.Job{
				Name: job, Deadline: deadline,
				Tasks: []jobio.Task{{Name: reason, BaseTime: deadline, Volume: int64(priority)}, {Name: shard}},
				Edges: []jobio.Edge{{Name: strategy, From: reason, To: shard, Volume: int64(epoch)}},
			}
		}
		checkEncodesAsReference(t, &enc, rec)
	})
}

// BenchmarkJournalAppend is one append of each kind a job costs — the
// admission record with its wire form, then a state change — without fsync,
// so B/op is the encoder's and the fold's.
func BenchmarkJournalAppend(b *testing.B) {
	j, _, err := Open(Options{Dir: b.TempDir(), Fsync: FsyncNever, IsTerminal: terminal})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	wire := testWire("a")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := j.Append(Record{Job: "a", State: "queued", Strategy: "S1", Wire: wire}); err != nil {
			b.Fatal(err)
		}
		if _, err := j.Append(Record{Job: "a", State: "completed"}); err != nil {
			b.Fatal(err)
		}
	}
}
