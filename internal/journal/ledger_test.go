package journal

import (
	"errors"
	"slices"
	"sync"
	"testing"
)

// TestLedgerDeliversWhatASyncCovered: a note owed under the lock reaches the
// observer only at an Unlock whose sync covers the record it is owed
// behind, in the order owed; a plain release delivers nothing, and a failed
// sync delivers nothing and is returned. Over a nil Journal every note is
// delivered at the next Unlock.
func TestLedgerDeliversWhatASyncCovered(t *testing.T) {
	var mu sync.Mutex
	var got []string
	j, g := openGated(t, Options{Dir: t.TempDir()})
	l := NewLedger(&mu, j, func(s string) { got = append(got, s) })

	since := l.Lock()
	for _, job := range []string{"a", "b"} {
		if err := l.Append(Record{Job: job, State: "completed"}); err != nil {
			t.Fatal(err)
		}
		l.Owe(job)
	}
	mu.Unlock() // a plain release, as a mirrored move's
	if len(got) != 0 {
		t.Fatalf("a plain release delivered %v", got)
	}
	g.open()
	if err := l.Unlock(l.Lock()); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, []string{"a", "b"}) {
		t.Fatalf("delivered %v, want [a b]", got)
	}
	if since != 0 || l.LSN() != 2 {
		t.Fatalf("Lock returned %d, LSN %d; want 0, 2", since, l.LSN())
	}

	g2 := newGate()
	g2.err = errors.New("injected write-back error")
	j.fsync = g2.fsync
	g2.open()
	l.Lock()
	if err := l.Append(Record{Job: "c", State: "completed"}); err != nil {
		t.Fatal(err)
	}
	l.Owe("c")
	if err := l.Unlock(0); !errors.Is(err, g2.err) {
		t.Fatalf("Unlock over a failed fsync returned %v, want its error", err)
	}
	mu.Lock()
	if err := l.UnlockShowing(true); !errors.Is(err, g2.err) {
		t.Fatalf("a read showing an outcome after the failed fsync returned %v, want its error", err)
	}
	if !slices.Equal(got, []string{"a", "b"}) {
		t.Fatalf("delivered %v after a failed fsync, want [a b]", got)
	}

	got = nil
	nl := NewLedger(&mu, nil, func(s string) { got = append(got, s) })
	since = nl.Lock()
	if err := nl.Append(Record{Job: "d", State: "completed"}); err != nil {
		t.Fatal(err)
	}
	nl.Owe("d")
	if err := nl.Unlock(since); err != nil || !slices.Equal(got, []string{"d"}) {
		t.Fatalf("over a nil Journal: Unlock %v, delivered %v; want nil, [d]", err, got)
	}
}
