package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for gridbench: run re-executes
// os.Executable() with -child for every repeat, and under `go test` that
// is this binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		main()
		return
	}
	os.Exit(m.Run())
}

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.25, 3}, {0.75, 8}, {0.9, 9}, {0.91, 10}, {1, 10}, {0.01, 1}} {
		if got := percentile(ten, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty set = %v, want 0", got)
	}
	if ten[0] != 10 {
		t.Error("percentile sorted its argument in place")
	}
	thousand := make([]float64, 1000)
	for i := range thousand {
		thousand[i] = float64(i + 1)
	}
	// 0.99·1000 is 990 in exact arithmetic and must not round up a rank.
	if got := percentile(thousand, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{50, 0}, {99, 0}, {100, 0.9}, {199, 0.9}, {200, 0.95}, {1000, 0.99}, {1500, 0.99}, {10000, 0.999}, {100000, 0.9999}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "driver.timed", Start: 0, End: 200},
		{ID: 2, Parent: 1, Name: "a.parent", Start: 0, End: 100},
		{ID: 3, Parent: 2, Name: "b.child", Start: 10, End: 50},
		{ID: 4, Parent: 2, Name: "b.child", Start: 30, End: 70},
		{ID: 5, Parent: 3, Name: "c.leaf", Start: 20, End: 25},
	}
	self, wall := selfTimes(spans, 1)
	if wall != 200 {
		t.Fatalf("wall = %d, want 200", wall)
	}
	// The parent keeps what the union [10,70) of its children leaves; the
	// children split the 20 ns they share; the leaf's 5 ns come out of the
	// first child alone.
	want := map[string]float64{"driver.timed": 100, "a.parent": 40, "b.child": 55, "c.leaf": 5}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self = %v, want %v", self, want)
	}
	var sum float64
	for _, v := range self {
		sum += v
	}
	if sum != float64(wall) {
		t.Errorf("rows sum to %v, wall is %d", sum, wall)
	}
}

func TestSelfTimeClipsToParentAndRoot(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "driver.timed", Start: 100, End: 200},
		{ID: 2, Parent: 1, Name: "a.work", Start: 150, End: 230},  // outlives the root
		{ID: 3, Parent: 2, Name: "b.inner", Start: 140, End: 160}, // starts before its parent
		{ID: 4, Name: "a.restore", Start: 300, End: 400},          // after the timed section
	}
	self, _ := selfTimes(spans, 1)
	want := map[string]float64{"driver.timed": 50, "a.work": 40, "b.inner": 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self = %v, want %v", self, want)
	}
}

func TestReparentByContainment(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "driver.timed", Start: 0, End: 1000},
		{ID: 2, Parent: 1, Name: "driver.process", Start: 100, End: 500},
		{ID: 3, Name: "service.process_batch", Start: 110, End: 490},
		{ID: 4, Name: "strategy.generate", Start: 120, End: 300},
		{ID: 5, Name: "strategy.generate", Start: 130, End: 310},
		{ID: 6, Parent: 4, Name: "strategy.level", Start: 125, End: 200},
		{ID: 7, Parent: 1, Name: "driver.submit", Start: 600, End: 700},
		{ID: 8, Name: "service.submit", Start: 610, End: 690},
		// A request span that only happens to sit inside a batch: the other
		// side of the server, so the batch must not adopt it.
		{ID: 9, Name: "service.submit", Start: 200, End: 250},
		// Another tracer's span is adopted by nothing but the root.
		{ID: 10 | 1<<sourceShift, Name: "service.process", Start: 150, End: 400, Source: 1},
		{ID: 11, Name: "service.restore", Start: 2000, End: 2100},
	}
	reparent(spans, 1)
	want := map[uint64]uint64{2: 1, 3: 2, 4: 3, 5: 3, 6: 4, 7: 1, 8: 7, 9: 1, 10 | 1<<sourceShift: 1, 11: 0}
	for _, s := range spans[1:] {
		if s.Parent != want[s.ID] {
			t.Errorf("%s #%d: parent %d, want %d", s.Name, s.ID, s.Parent, want[s.ID])
		}
	}
}

func TestParseSpansNamespacesIDs(t *testing.T) {
	jsonl := []byte(`{"span":2,"parent":1,"name":"x.y","start":5,"end":9,"attrs":{"job":"j"}}` + "\n" +
		`{"span":1,"name":"x","start":1,"end":10}` + "\n")
	got, err := parseSpans(jsonl, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []span{
		{ID: 2 | 2<<sourceShift, Parent: 1 | 2<<sourceShift, Name: "x.y", Start: 5, End: 9, Source: 2},
		{ID: 1 | 2<<sourceShift, Name: "x", Start: 1, End: 10, Source: 2},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseSpans = %+v, want %+v", got, want)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range allMetrics() {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("%s is listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		if !strings.Contains(d.Name, ".") || d.Bound != 0 {
			t.Errorf("%s: per-layer metrics are <module>.<metric> and carry no bound", d.Name)
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
}

// benchmarkJSON mirrors BENCHMARK.json; unknown keys are an error.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheBinary(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "./benchmark"}; !reflect.DeepEqual(b.Command, want) {
		t.Errorf("command = %v, want %v", b.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(b.Paths, want) {
		t.Errorf("paths = %v, want %v", b.Paths, want)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the binary runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, the binary has %s: %s", i, b.Workloads[i], w.Name, w.Why)
		}
		// A run sized by run_seconds must leave fed_durable two repeats,
		// so setup_s is a median and not a single reading.
		if n := w.repeatsFor(b.RunSeconds); n < 2 {
			t.Errorf("%s gets %d repeats from run_seconds=%d", w.Name, n, b.RunSeconds)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, the binary prints %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		g := b.EndToEnd[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, the binary has %s %s %s %v", i, g, d.Name, d.Unit, d.Better, d.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, the binary prints %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		g := b.PerLayer[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, the binary has %s %s %s", i, g, d.Name, d.Unit, d.Better)
		}
	}
}

func TestCorpusFollowsTheSeed(t *testing.T) {
	a, _ := svcCorpusFor(svcCorpus(corpusSeed(1, 0)), 20)
	b, _ := svcCorpusFor(svcCorpus(corpusSeed(1, 0)), 20)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed and repeat gave two different corpora")
	}
	for _, other := range []uint64{corpusSeed(2, 0), corpusSeed(1, 1)} {
		c, _ := svcCorpusFor(svcCorpus(other), 20)
		if reflect.DeepEqual(a, c) {
			t.Error("another seed or repeat gave the same corpus")
		}
	}
	if newEnv().NumNodes() != newEnv().NumNodes() {
		t.Error("the grid is not fixed")
	}
}

// TestQuickSmoke is the whole benchmark at ≤100 jobs: every workload, one
// untraced repeat and the traced one, each in a child process. Because
// both repeats run the same corpus, failed == 0 also says that every exact
// metric was identical across two runs of one seed, tracing on and off.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	var out bytes.Buffer
	failed, err := run(options{seed: 1, trace: -1, quick: true, out: &out})
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	text := out.String()
	if failed != 0 {
		t.Fatalf("failed = %d\n%s", failed, text)
	}
	for _, w := range workloads {
		_, section, ok := strings.Cut(text, "== "+w.Name+":")
		if !ok {
			t.Fatalf("no section for %s\n%s", w.Name, text)
		}
		section, _, _ = strings.Cut(section, "\n== ")
		for _, d := range allMetrics() {
			if !regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(d.Name) + `\s+\S+ ` + regexp.QuoteMeta(d.Unit) + `\s`).MatchString(section) {
				t.Errorf("%s does not print %s with unit %s", w.Name, d.Name, d.Unit)
			}
		}
		if !strings.Contains(section, "driver.timed (residual)") {
			t.Errorf("%s prints no layer table", w.Name)
		}
	}
	for _, want := range []string{"nproc=", "GOMAXPROCS=", "go1.", "fs="} {
		if !strings.Contains(text, want) {
			t.Errorf("host line lacks %q", want)
		}
	}
}

func TestRelDiff(t *testing.T) {
	if relDiff(0, 0) != 0 || !math.IsInf(relDiff(0, 1), 1) || relDiff(100, 90) != 0.1 {
		t.Error("relDiff")
	}
}
