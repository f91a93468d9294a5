package scalereport

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sample() *Report {
	return &Report{
		Schema: Schema,
		Config: RunConfig{
			Mode: "inprocess", Arrival: "poisson", Strategy: "S1", Seed: 1,
			Jobs: 100, QueueCap: 64, Domains: 2, Burst: 16, Proc: 12,
			Priorities: 3, MeanInterarrival: 12,
		},
		Deterministic: Deterministic{
			Submitted: 100, Accepted: 98, Completed: 60, Rejected: 20,
			Shed: 5, Overloaded: 2, Drained: 18, ClientAccepted: 98,
			Client429: 2, QueueHighWater: 64, EngineTicks: 500,
			GoodputPerKTicks: 120,
			TerminalByState:  map[string]uint64{"completed": 60, "rejected": 20, "drained": 18},
		},
		Wall: WallClock{
			ElapsedSeconds: 1.5, GoodputJobsPerSec: 40,
			AdmissionP50: 0.01, AdmissionP99: 0.1,
		},
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_scale.json")
	r := sample()
	if err := r.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := CompareDeterministic(got, r); len(diffs) != 0 {
		t.Errorf("round trip diverged: %v", diffs)
	}
	if got.Wall != r.Wall {
		t.Errorf("wall section diverged: %+v vs %+v", got.Wall, r.Wall)
	}
}

func TestLoadErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file loaded")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{not json"), 0o644)
	if _, err := Load(bad); err == nil {
		t.Error("malformed JSON loaded")
	}
	wrongSchema := filepath.Join(dir, "schema.json")
	os.WriteFile(wrongSchema, []byte(`{"schema":"gridload/v0"}`), 0o644)
	if _, err := Load(wrongSchema); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("wrong schema: err = %v", err)
	}
}

func TestCompareDeterministic(t *testing.T) {
	a, b := sample(), sample()
	if diffs := CompareDeterministic(a, b); len(diffs) != 0 {
		t.Fatalf("identical reports diff: %v", diffs)
	}
	// Config drift short-circuits with a single loud message.
	b.Config.Seed = 2
	if diffs := CompareDeterministic(a, b); len(diffs) != 1 || !strings.Contains(diffs[0], "config differs") {
		t.Errorf("config drift: %v", diffs)
	}
	// Field drift names the field.
	b = sample()
	b.Deterministic.Completed = 59
	b.Deterministic.GoodputPerKTicks = 118
	diffs := CompareDeterministic(a, b)
	if len(diffs) != 2 {
		t.Fatalf("want 2 diffs, got %v", diffs)
	}
	if !strings.Contains(diffs[0], "completed") || !strings.Contains(diffs[1], "goodputPerKTicks") {
		t.Errorf("diff messages: %v", diffs)
	}
	// Terminal-state drift, including states present on only one side.
	b = sample()
	delete(b.Deterministic.TerminalByState, "drained")
	b.Deterministic.TerminalByState["failed"] = 1
	diffs = CompareDeterministic(a, b)
	if len(diffs) != 2 {
		t.Errorf("terminal map drift: %v", diffs)
	}
}

func TestPercentile(t *testing.T) {
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
	s := []float64{5, 1, 4, 2, 3}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.99, 5}, {0.2, 1},
	}
	for _, c := range cases {
		if got := Percentile(s, c.q); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Input must not be mutated (callers keep their sample slices).
	if s[0] != 5 {
		t.Error("Percentile sorted the caller's slice")
	}
}
