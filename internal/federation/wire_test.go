package federation

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/jobio"
)

func testJob(name string, deadline int64) jobio.Job {
	return jobio.Job{
		Name:     name,
		Deadline: deadline,
		Tasks: []jobio.Task{
			{Name: "A", BaseTime: 2, Volume: 10},
			{Name: "B", BaseTime: 3, Volume: 15},
		},
		Edges: []jobio.Edge{{Name: "d", From: "A", To: "B", BaseTime: 1, Volume: 5}},
	}
}

func testHandoff(key string) *Handoff {
	return &Handoff{Key: key, Job: testJob(key, 60), Strategy: "S1", Priority: 2}
}

func TestHandoffRoundTrip(t *testing.T) {
	h := testHandoff("j1")
	h.Epoch = 3
	frame, err := EncodeHandoff(h)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeHandoff(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != "j1" || got.Job.Name != "j1" || got.Strategy != "S1" ||
		got.Priority != 2 || got.Epoch != 3 || len(got.Job.Tasks) != 2 {
		t.Fatalf("round trip mangled the handoff: %+v", got)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	frame, err := EncodeHandoff(testHandoff("j1"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mangle func([]byte) []byte
		want   error
	}{
		{"truncated header", func(b []byte) []byte { return b[:4] }, ErrTruncated},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-8] }, ErrTruncated},
		{"empty", func(b []byte) []byte { return nil }, ErrTruncated},
		{"bad magic", func(b []byte) []byte { c := clone(b); c[0] = 'X'; return c }, ErrBadMagic},
		{"bad version", func(b []byte) []byte { c := clone(b); c[4] = 99; return c }, ErrBadVersion},
		{"flipped payload bit", func(b []byte) []byte { c := clone(b); c[frameHeader+3] ^= 0x40; return c }, ErrBadCRC},
		{"flipped crc", func(b []byte) []byte { c := clone(b); c[len(c)-1] ^= 0x01; return c }, ErrBadCRC},
		{"absurd length", func(b []byte) []byte {
			c := clone(b)
			c[5], c[6], c[7], c[8] = 0xff, 0xff, 0xff, 0xff
			return c
		}, ErrFrameTooBig},
	}
	for _, tc := range cases {
		if _, err := DecodeHandoff(tc.mangle(frame)); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	// Trailing garbage after a valid frame is refused too.
	if _, err := DecodeHandoff(append(clone(frame), 0xde, 0xad)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func clone(b []byte) []byte { return append([]byte(nil), b...) }

func TestDecodeRejectsSemanticViolations(t *testing.T) {
	// Key/name mismatch.
	h := testHandoff("j1")
	h.Job.Name = "other"
	frame, err := EncodeHandoff(h)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeHandoff(frame); err == nil {
		t.Error("key/name mismatch accepted")
	}
	// Empty key.
	h2 := testHandoff("")
	frame2, err := EncodeHandoff(h2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeHandoff(frame2); err == nil {
		t.Error("empty idempotency key accepted")
	}
}

// FuzzHandoffDecode throws mutated frames at the decoder. It must never
// panic, and anything it accepts must re-encode and re-decode to the same
// handoff (the codec is a bijection on valid inputs).
func FuzzHandoffDecode(f *testing.F) {
	single, err := EncodeHandoff(testHandoff("fuzz-seed"))
	if err != nil {
		f.Fatal(err)
	}
	other, err := EncodeHandoff(testHandoff("b"))
	if err != nil {
		f.Fatal(err)
	}
	dup := append(clone(single), single...)
	badVersion := clone(single)
	badVersion[4] = 7
	mismatched, _ := EncodeHandoff(&Handoff{Key: "k", Job: testJob("not-k", 60)})

	f.Add(single)
	f.Add(append(clone(single), other...)) // two frames: trailing bytes
	f.Add(dup)
	f.Add(badVersion)
	f.Add(single[:len(single)/2]) // truncated
	f.Add(mismatched)
	f.Add([]byte("GFED"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeHandoff(data)
		if err != nil {
			return
		}
		if h.Key == "" || h.Key != h.Job.Name {
			t.Fatalf("DecodeHandoff accepted invalid handoff %+v", h)
		}
		re, err := EncodeHandoff(h)
		if err != nil {
			t.Fatalf("decoded handoff does not re-encode: %v", err)
		}
		if ref, _ := encodeHandoffRef(h); !bytes.Equal(re, ref) {
			t.Fatalf("re-encoded frame differs from the reference\n got %q\nwant %q", re, ref)
		}
		h2, err := DecodeHandoff(re)
		if err != nil {
			t.Fatalf("re-encoded handoff does not decode: %v", err)
		}
		if h2.Key != h.Key || h2.Job.Name != h.Job.Name {
			t.Fatalf("round trip changed key %q→%q", h.Key, h2.Key)
		}
	})
}
