package resource

import (
	"encoding/binary"
	"testing"

	"repro/internal/simtime"
)

// FuzzCalendarIndex feeds an arbitrary operation program to the
// Calendar and the naive linear reference model and demands identical
// behavior: every mutation result, every window-query answer, the
// reservation listing and the generation counter. The corpus is seeded
// with books shaped like the paper's figures — Fig. 2's sparse
// 6-reservation Gantt rows and Fig. 4's dense availability-sweep books —
// plus the degenerate empty program.
//
// The program drives two books: the current one and the one it was last
// cloned from (or swapped with), which every step cross-examines too: clone,
// mutate the source, mutate the clone — in any interleaving — must leave
// each book answering for its own reservations.
//
// Program encoding, per op: 1 opcode byte followed by two little-endian
// uint16 operands (a, b). Times derive from the operands modulo a 1<<13
// universe, which keeps all arithmetic far from int64 overflow while
// still producing dense, overlapping traffic.
func FuzzCalendarIndex(f *testing.F) {
	prog := func(ops ...[3]uint16) []byte {
		var out []byte
		for _, op := range ops {
			out = append(out, byte(op[0]))
			out = binary.LittleEndian.AppendUint16(out, op[1])
			out = binary.LittleEndian.AppendUint16(out, op[2])
		}
		return out
	}

	f.Add([]byte{})
	// Fig. 2-shaped book: a handful of task reservations with gaps, then
	// window probes around the reserved run.
	f.Add(prog(
		[3]uint16{0, 0, 30}, [3]uint16{0, 40, 25}, [3]uint16{0, 70, 50},
		[3]uint16{0, 130, 20}, [3]uint16{0, 160, 35}, [3]uint16{0, 220, 15},
		[3]uint16{6, 10, 200}, [3]uint16{7, 35, 12}, [3]uint16{6, 0, 8000},
	))
	// Fig. 4-shaped book: dense back-to-back reservations (availability
	// sweep load), interleaved with releases, prunes and a void.
	f.Add(prog(
		[3]uint16{0, 0, 10}, [3]uint16{0, 10, 10}, [3]uint16{0, 20, 10},
		[3]uint16{0, 30, 10}, [3]uint16{0, 50, 10}, [3]uint16{0, 60, 10},
		[3]uint16{0, 80, 10}, [3]uint16{0, 100, 10}, [3]uint16{0, 110, 10},
		[3]uint16{7, 0, 25}, [3]uint16{1, 2, 0}, [3]uint16{4, 35, 0},
		[3]uint16{6, 0, 120}, [3]uint16{5, 0, 0}, [3]uint16{0, 5, 40},
	))
	// Ownership churn: same windows cycling through owners and jobs.
	f.Add(prog(
		[3]uint16{0, 0, 20}, [3]uint16{0, 25, 20}, [3]uint16{0, 50, 20},
		[3]uint16{2, 1, 0}, [3]uint16{3, 2, 0}, [3]uint16{0, 25, 20},
		[3]uint16{8, 0, 0}, [3]uint16{0, 10, 10},
	))

	// Clone, then mutate and probe the source and the clone in turn (9 swaps
	// the two books).
	f.Add(prog(
		[3]uint16{0, 0, 10}, [3]uint16{0, 20, 10}, [3]uint16{0, 40, 10},
		[3]uint16{6, 0, 15}, [3]uint16{8, 0, 0}, [3]uint16{9, 0, 0},
		[3]uint16{0, 10, 5}, [3]uint16{6, 0, 15}, [3]uint16{9, 0, 0},
		[3]uint16{6, 0, 15}, [3]uint16{0, 30, 8}, [3]uint16{6, 0, 15},
		[3]uint16{9, 0, 0}, [3]uint16{1, 0, 0}, [3]uint16{6, 0, 15},
	))

	f.Fuzz(func(t *testing.T, data []byte) {
		const universe = 1 << 13
		c, ref := NewCalendar(), &refCalendar{}
		side, sideRef := NewCalendar(), &refCalendar{}
		owners := []Owner{
			{Job: "job-a", Task: "t0"}, {Job: "job-a", Task: "t1"},
			{Job: "job-b", Task: "t0"}, {Job: "job-c"}, External,
		}
		step := 0
		for len(data) >= 5 && step < 512 {
			opcode, a16, b16 := data[0], binary.LittleEndian.Uint16(data[1:3]), binary.LittleEndian.Uint16(data[3:5])
			data = data[5:]
			a := simtime.Time(a16) % universe
			b := simtime.Time(b16)
			switch opcode % 10 {
			case 0: // Reserve [a, a+b%64)
				iv := simtime.Interval{Start: a, End: a + b%64}
				o := owners[int(b)%len(owners)]
				errC, errR := c.Reserve(iv, o), ref.Reserve(iv, o)
				if (errC == nil) != (errR == nil) {
					t.Fatalf("step %d: Reserve(%v) err %v, reference %v", step, iv, errC, errR)
				}
			case 1: // Release the a-th existing booking
				res := ref.Reservations()
				if len(res) == 0 {
					break
				}
				pick := res[int(a)%len(res)]
				if got, want := c.Release(pick.Interval, pick.Owner), ref.Release(pick.Interval, pick.Owner); got != want {
					t.Fatalf("step %d: Release(%v) = %v, reference %v", step, pick.Interval, got, want)
				}
			case 2, 3: // ReleaseJob
				o := owners[int(a)%len(owners)]
				if got, want := c.ReleaseJob(o.Job), ref.ReleaseJob(o.Job); got != want {
					t.Fatalf("step %d: ReleaseJob(%q) = %d, reference %d", step, o.Job, got, want)
				}
			case 4: // PruneBefore
				if got, want := c.PruneBefore(a), ref.PruneBefore(a); got != want {
					t.Fatalf("step %d: PruneBefore(%d) = %d, reference %d", step, a, got, want)
				}
			case 5: // Void
				if got, want := c.Void(nil), ref.Void(); !sameReservations(got, want) {
					t.Fatalf("step %d: Void() = %v, reference %v", step, got, want)
				}
			case 6: // FirstFree probe batch at (a, lengths..., horizon a+b)
				for _, length := range []simtime.Time{1, b % universe, b} {
					for _, horizon := range []simtime.Time{a + b, universe, simtime.Infinity} {
						gt, gok := c.FirstFree(a, length, horizon)
						wt, wok := ref.FirstFree(a, length, horizon)
						if gt != wt || gok != wok {
							t.Fatalf("step %d: FirstFree(%d,%d,%d) = (%d,%v), reference (%d,%v)",
								step, a, length, horizon, gt, gok, wt, wok)
						}
					}
				}
			case 7: // window probes over [a, a+b)
				span := simtime.Interval{Start: a, End: a + b}
				if got, want := c.ConflictsWith(span), ref.ConflictsWith(span); !sameReservations(got, want) {
					t.Fatalf("step %d: ConflictsWith(%v) = %v, reference %v", step, span, got, want)
				}
				if got, want := c.BusyIn(span), ref.BusyIn(span); got != want {
					t.Fatalf("step %d: BusyIn(%v) = %d, reference %d", step, span, got, want)
				}
			case 8: // Clone both and continue on the clones, the sources beside them
				side, sideRef = c, ref
				c, ref = c.Clone(), ref.Clone()
			case 9: // continue on the other book
				c, ref, side, sideRef = side, sideRef, c, ref
			}
			compareCalendars(t, step, c, ref, []simtime.Time{0, a, a + b%universe})
			compareCalendars(t, step, side, sideRef, []simtime.Time{0, a, a + b%universe})
			step++
		}
	})
}
