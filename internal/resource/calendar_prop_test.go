package resource

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/rng"
	"repro/internal/simtime"
)

func TestReserveEmptyIntervalSentinel(t *testing.T) {
	c := NewCalendar()
	err := c.Reserve(simtime.Interval{Start: 5, End: 5}, Owner{Job: "j"})
	if !errors.Is(err, ErrEmptyInterval) {
		t.Fatalf("empty reservation error = %v, want ErrEmptyInterval", err)
	}
	var conflict *ErrConflict
	if errors.As(err, &conflict) {
		t.Fatal("empty-interval error matched *ErrConflict")
	}
	if c.Len() != 0 {
		t.Fatal("empty reservation modified the calendar")
	}

	// A genuine overlap still yields *ErrConflict, not the sentinel.
	if err := c.Reserve(simtime.Interval{Start: 0, End: 10}, Owner{Job: "a"}); err != nil {
		t.Fatal(err)
	}
	err = c.Reserve(simtime.Interval{Start: 5, End: 8}, Owner{Job: "b"})
	if !errors.As(err, &conflict) {
		t.Fatalf("overlap error = %v, want *ErrConflict", err)
	}
	if errors.Is(err, ErrEmptyInterval) {
		t.Fatal("conflict error matched ErrEmptyInterval")
	}
}

// checkInvariants asserts the calendar's structural invariants: sorted by
// start, pairwise non-overlapping, and busy time within the span.
func checkInvariants(t *testing.T, c *Calendar, step int) {
	t.Helper()
	res := c.Reservations()
	for i := 1; i < len(res); i++ {
		if res[i-1].Interval.Start > res[i].Interval.Start {
			t.Fatalf("step %d: reservations out of order: %v before %v",
				step, res[i-1].Interval, res[i].Interval)
		}
		if res[i-1].Interval.Overlaps(res[i].Interval) {
			t.Fatalf("step %d: reservations overlap: %v and %v",
				step, res[i-1].Interval, res[i].Interval)
		}
	}
	for _, span := range []simtime.Interval{
		{Start: 0, End: 1}, {Start: 0, End: 50}, {Start: 25, End: 75}, {Start: 0, End: 1000},
	} {
		if b := c.BusyIn(span); b < 0 || b > span.Len() {
			t.Fatalf("step %d: busy ticks in %v = %d outside [0,%d]", step, span, b, span.Len())
		}
	}
}

func TestCalendarInvariantsUnderRandomOps(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rng.New(seed)
			c := NewCalendar()
			var booked []Reservation
			for step := 0; step < 600; step++ {
				switch r.Intn(6) {
				case 0, 1, 2: // Reserve — the most common operation
					start := simtime.Time(r.Intn(900))
					iv := simtime.Interval{Start: start, End: start + simtime.Time(r.Intn(30))}
					owner := Owner{Job: fmt.Sprintf("job-%d", r.Intn(8)), Task: fmt.Sprintf("t%d", r.Intn(3))}
					err := c.Reserve(iv, owner)
					switch {
					case iv.Empty():
						if !errors.Is(err, ErrEmptyInterval) {
							t.Fatalf("step %d: empty reserve error = %v", step, err)
						}
					case err == nil:
						booked = append(booked, Reservation{Interval: iv, Owner: owner})
					default:
						var conflict *ErrConflict
						if !errors.As(err, &conflict) {
							t.Fatalf("step %d: reserve error = %v", step, err)
						}
					}
				case 3: // Release one exact booking
					if len(booked) > 0 {
						i := r.Intn(len(booked))
						c.Release(booked[i].Interval, booked[i].Owner)
						booked = append(booked[:i], booked[i+1:]...)
					}
				case 4: // ReleaseJob
					c.ReleaseJob(fmt.Sprintf("job-%d", r.Intn(8)))
					booked = append(booked[:0], c.Reservations()...)
				case 5: // PruneBefore
					c.PruneBefore(simtime.Time(r.Intn(1000)))
					booked = append(booked[:0], c.Reservations()...)
				}
				checkInvariants(t, c, step)
			}
		})
	}
}

func TestCalendarVoid(t *testing.T) {
	c := NewCalendar()
	for i := 0; i < 5; i++ {
		iv := simtime.Interval{Start: simtime.Time(i * 10), End: simtime.Time(i*10 + 5)}
		if err := c.Reserve(iv, Owner{Job: fmt.Sprintf("j%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	held := Reservation{Owner: Owner{Job: "already in the buffer"}}
	voided := c.Void([]Reservation{held})
	if len(voided) != 6 || voided[0] != held {
		t.Fatalf("Void appended to %v, want the buffer's entry then 5 reservations", voided)
	}
	voided = voided[1:]
	for i := 1; i < len(voided); i++ {
		if voided[i-1].Interval.Start > voided[i].Interval.Start {
			t.Fatal("voided reservations not in start order")
		}
	}
	if c.Len() != 0 {
		t.Fatalf("calendar holds %d reservations after Void", c.Len())
	}
	if got := c.Void(nil); got != nil {
		t.Fatalf("voiding an empty book returned %v", got)
	}
	// The book is usable again after a crash, and refilling the array it kept
	// leaves what Void returned alone.
	if err := c.Reserve(simtime.Interval{Start: 0, End: 100}, External); err != nil {
		t.Fatal(err)
	}
	if voided[0].Owner.Job != "j0" || voided[0].Interval.End != 5 {
		t.Fatalf("the voided copy changed with the book: %v", voided[0])
	}
}

func TestNodeUpDownDepthAndDowntime(t *testing.T) {
	n := NewNode(0, "n0", 1.0, "dom")
	if !n.Up() {
		t.Fatal("fresh node not up")
	}
	if !n.MarkDown(10) {
		t.Fatal("first MarkDown did not transition")
	}
	if n.MarkDown(12) {
		t.Fatal("nested MarkDown reported a transition")
	}
	if n.Up() {
		t.Fatal("node up while two causes pending")
	}
	if n.MarkUp(20) {
		t.Fatal("first MarkUp transitioned with a cause still pending")
	}
	if !n.MarkUp(25) {
		t.Fatal("final MarkUp did not transition")
	}
	if !n.Up() {
		t.Fatal("node not up after balanced MarkUp")
	}
	if got := n.Downtime(100); got != 15 {
		t.Errorf("downtime = %d, want 15", got)
	}
	if len(n.Outages()) != 1 || n.Outages()[0] != (simtime.Interval{Start: 10, End: 25}) {
		t.Errorf("outages = %v", n.Outages())
	}

	// Open outage counts up to now; unbalanced MarkUp panics.
	n.MarkDown(50)
	if got := n.Downtime(60); got != 25 {
		t.Errorf("downtime with open outage = %d, want 25", got)
	}
	n.MarkUp(60)
	defer func() {
		if recover() == nil {
			t.Error("MarkUp on up node did not panic")
		}
	}()
	n.MarkUp(70)
}

func TestEnvironmentUpNodesAndReset(t *testing.T) {
	env := NewEnvironment([]*Node{
		NewNode(0, "a", 1.0, "d0"),
		NewNode(1, "b", 0.5, "d0"),
		NewNode(2, "c", 0.33, "d1"),
	})
	env.Node(0).MarkDown(5)
	env.Node(1).MarkDown(5)
	if env.DomainUp("d0") {
		t.Error("d0 reported up with every node down")
	}
	if !env.DomainUp("d1") {
		t.Error("d1 reported down")
	}
}
