package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/jobio"
	"repro/internal/metasched"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// spanNames is the span taxonomy (DESIGN.md §10): every name the service,
// the VO, the strategy generator and the critical-works method open.
var spanNames = []string{
	"service.submit", "service.process", "service.drain",
	"metasched.adopt", "metasched.fallback",
	"strategy.generate", "strategy.level",
	"criticalworks.build", "criticalworks.attempt", "criticalworks.chain", "criticalworks.dp",
}

// TestSpanTree pins the span stream of one seeded manual-mode service, span
// for span: names, parents, attributes in order, and the order in which
// spans start and end. The tracer's clock ticks once per read, so a span's
// start and end say where it opened and closed among all the others, and
// IDs are sequential because every span opens on the test's goroutine.
// External load evicts planned jobs and task failures kill running ones,
// so the fallback ladder runs too, one re-anchored level included, and
// every name in spanNames appears. The stream is compared with
// testdata/spans.golden; go test ./internal/service -run TestSpanTree
// -update regenerates it.
func TestSpanTree(t *testing.T) {
	var buf bytes.Buffer
	tr := telemetry.NewTracer(&buf)
	var tick int64
	tr.SetClock(func() int64 { tick++; return tick })

	gen := workload.New(workload.Default(1))
	s := newServer(t, Config{
		Env:      gen.Environment(2),
		QueueCap: 64,
		Sched: metasched.Config{
			Seed:            1,
			Spans:           tr,
			ExternalMeanGap: 1, ExternalLead: 1, ExternalDurLo: 2, ExternalDurHi: 10,
			ExternalUntil: 200,
			Faults:        faults.Config{TaskFailRate: 0.3, Seed: 7},
		},
	})
	strategies := []string{"S1", "S2", "S3", "MS1"}
	for i, a := range gen.FlowWith(workload.ArrivalSpec{Kind: workload.ProcPoisson}, 0, 12, 0) {
		wire := jobio.FromJob(a.Job)
		wire.Deadline = int64(a.Job.Deadline - a.At)
		if _, err := s.Submit(wire, strategies[i%len(strategies)], i%3); err != nil && submitCode(err) == CodeInternal {
			t.Fatalf("submit %s: %v", wire.Name, err)
		}
		if (i+1)%4 == 0 {
			s.Process(-1)
		}
	}
	s.Process(-1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}

	seen := map[string]int{}
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var line struct{ Name string }
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("span line %q: %v", sc.Text(), err)
		}
		seen[line.Name]++
	}
	for _, name := range spanNames {
		if seen[name] == 0 {
			t.Errorf("no %s span in the run", name)
		}
		delete(seen, name)
	}
	if len(seen) > 0 {
		names := make([]string, 0, len(seen))
		for name := range seen {
			names = append(names, name)
		}
		sort.Strings(names)
		t.Errorf("spans outside the taxonomy: %v", names)
	}

	path := filepath.Join("testdata", "spans.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (go test ./internal/service -run TestSpanTree -update creates it): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("%s differs from the run (%d bytes, golden %d); -update regenerates it", path, buf.Len(), len(want))
	}
}
