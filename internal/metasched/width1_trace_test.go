package metasched

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/criticalworks"
	"repro/internal/dag"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/strategy"
)

// TestWidthOneArrivalsKeepTheirOwnEvents pins what the sequential arrival
// path used to guarantee and singleton batches now do: at Placers 0 every
// submission has its own engine event, so an external-load event scheduled
// between two same-tick submissions sees the earlier job placed (and can
// evict it) and the later one not yet arrived. Merging same-tick arrivals
// into one event at width 1 would move "arrive C" ahead of the external
// and fail the literal order below.
func TestWidthOneArrivalsKeepTheirOwnEvents(t *testing.T) {
	e := sim.New()
	env := resource.NewEnvironment([]*resource.Node{
		resource.NewNode(0, "fast", 1.0, "dom"),
		resource.NewNode(1, "slow", 0.27, "dom"),
	})
	tr := &MemoryTracer{}
	vo := NewVO(e, env, Config{Objective: criticalworks.MinCost, Tracer: tr})
	// The slow node is busy until 20, so the cheapest plans start in the
	// future and stay evictable.
	if !vo.InjectExternal(1, simtime.Interval{Start: 0, End: 20}) {
		t.Fatal("pre-load rejected")
	}
	job := func(name string) *dag.Job {
		b := dag.NewBuilder(name).Deadline(200)
		b.Task("T", 4, 16)
		return b.MustBuild()
	}
	const tick = 5
	for _, name := range []string{"A", "B"} {
		if err := vo.Submit(job(name), strategy.S1, tick); err != nil {
			t.Fatal(err)
		}
	}
	e.At(tick, "external-load", func() {
		if !vo.InjectExternal(1, simtime.Interval{Start: 22, End: 30}) {
			t.Error("external load was refused")
		}
	})
	if err := vo.Submit(job("C"), strategy.S1, tick); err != nil {
		t.Fatal(err)
	}
	e.RunUntil(tick + 1)

	var got []string
	for _, ev := range tr.Events() {
		if ev.At != tick {
			continue
		}
		got = append(got, strings.TrimSpace(fmt.Sprintf("%s %s", ev.Kind, ev.Job)))
	}
	want := []string{
		"arrive A", "activate A",
		"arrive B", "activate B",
		"evict A", "external", "fallback A", "activate A",
		"arrive C", "activate C",
	}
	if strings.Join(got, ", ") != strings.Join(want, ", ") {
		t.Errorf("tick %d event order\n got: %s\nwant: %s", tick, strings.Join(got, ", "), strings.Join(want, ", "))
	}
}
