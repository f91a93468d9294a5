package journal

import "sync"

// Ledger is the commit cycle of a tier that journals its own moves under its
// own lock: Lock takes the lock, Append journals a move, Owe queues a note
// for the tier's observer, and Unlock releases the lock, then syncs through
// the newest record and delivers the notes that sync covered. A call
// answers only after its Unlock, so it answers with durable state only,
// and concurrent calls share their fsyncs. A tier makes every journaled
// move through its Ledger; a section that only mirrors state another
// journal holds durably may release the lock plainly, and its records ride
// the next Unlock that syncs. N is the note's type: owed notes are values,
// so a note costs no allocation beyond its queue's growth. A nil Journal
// appends and syncs nothing; notes are then delivered at Unlock.
type Ledger[N any] struct {
	mu     *sync.Mutex
	j      *Journal
	notify func(N)

	// Guarded by mu: lsn is the newest record appended through the ledger,
	// and owed the notes not yet delivered, each behind its record's LSN.
	lsn  uint64
	owed []owedNote[N]
}

type owedNote[N any] struct {
	lsn  uint64
	note N
}

// NewLedger returns the ledger of a tier whose lock is mu and whose journal
// is j (nil when the tier does not journal). notify, when non-nil, receives
// each owed note, under mu, in journal order, once a sync covers the
// record it is owed behind; once a sync has failed it receives none.
func NewLedger[N any](mu *sync.Mutex, j *Journal, notify func(N)) *Ledger[N] {
	return &Ledger[N]{mu: mu, j: j, notify: notify}
}

// Lock takes the tier's lock and returns the newest record's LSN, for the
// matching Unlock.
func (l *Ledger[N]) Lock() uint64 {
	l.mu.Lock()
	return l.lsn
}

// Append journals rec; the caller's Unlock syncs it. It returns the append
// error, which the journal counts. Caller holds the lock.
func (l *Ledger[N]) Append(rec Record) error {
	if l.j == nil {
		return nil
	}
	lsn, err := l.j.Append(rec)
	l.lsn = max(l.lsn, lsn)
	return err
}

// Owe queues note for the observer, behind the newest record. Without an
// observer it does nothing. Caller holds the lock.
func (l *Ledger[N]) Owe(note N) {
	if l.notify != nil {
		l.owed = append(l.owed, owedNote[N]{l.lsn, note})
	}
}

// LSN returns the newest record's LSN. Caller holds the lock.
func (l *Ledger[N]) LSN() uint64 { return l.lsn }

// Unlock releases the lock. A caller that appended since Lock returned
// since, that finds notes owed, or that shows an outcome (since 0) then
// waits until every record the tier had journaled is on disk: its own, and
// those appended before them. It then delivers, under the lock, the notes
// that sync covered. A failed sync delivers nothing and is returned.
func (l *Ledger[N]) Unlock(since uint64) error {
	lsn, owed := l.lsn, len(l.owed) > 0
	l.mu.Unlock()
	if lsn == since && !owed {
		return nil
	}
	if err := l.j.Sync(lsn); err != nil || !owed {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for ; n < len(l.owed) && l.owed[n].lsn <= lsn; n++ {
		l.notify(l.owed[n].note)
	}
	l.owed = append(l.owed[:0], l.owed[n:]...)
	return nil
}

// UnlockShowing is a read's Unlock: it syncs only when the read shows an
// outcome, which no crash may take back once shown.
func (l *Ledger[N]) UnlockShowing(outcome bool) error {
	if !outcome {
		l.mu.Unlock()
		return nil
	}
	return l.Unlock(0)
}
