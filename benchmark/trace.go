package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// tracing holds the traced pass's span sinks: one in-memory buffer and
// tracer per server (a single one outside fed_durable), written to disk
// only when the repeat is over. A nil *tracing is the untraced pass: at
// returns a nil tracer, whose spans cost nothing.
type tracing struct {
	bufs    []*bytes.Buffer
	tracers []*telemetry.Tracer
	root    *telemetry.Span
}

func newTracing(sources int) *tracing {
	t := &tracing{}
	for i := 0; i < sources; i++ {
		buf := &bytes.Buffer{}
		t.bufs = append(t.bufs, buf)
		t.tracers = append(t.tracers, telemetry.NewTracer(telemetry.NewSyncWriter(buf)))
	}
	return t
}

func (t *tracing) at(source int) *telemetry.Tracer {
	if t == nil {
		return nil
	}
	return t.tracers[source]
}

// startRoot opens driver.timed, the span the whole timed section hangs
// under.
func (t *tracing) startRoot() {
	if t != nil {
		t.root = t.tracers[0].Start("driver.timed", 0)
	}
}

func (t *tracing) endRoot() {
	if t != nil {
		t.root.End()
	}
}

// rootID is the parent the driver's own spans name.
func (t *tracing) rootID() telemetry.SpanID {
	if t == nil {
		return 0
	}
	return t.root.ID()
}

// collect parses every buffer and stitches the spans under the root.
func (t *tracing) collect() ([]span, uint64, error) {
	var all []span
	for i, buf := range t.bufs {
		if err := t.tracers[i].Err(); err != nil {
			return nil, 0, fmt.Errorf("tracer %d: %w", i, err)
		}
		s, err := parseSpans(buf.Bytes(), i)
		if err != nil {
			return nil, 0, err
		}
		all = append(all, s...)
	}
	root := uint64(t.root.ID())
	reparent(all, root)
	return all, root, nil
}

// writeTo dumps the raw span streams, one tracer after another.
func (t *tracing) writeTo(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, buf := range t.bufs {
		if _, err := f.Write(buf.Bytes()); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// layerTable turns the stitched spans into the per-span-name table and
// the span-derived per-layer metrics. Rows plus the root's own row
// (driver.timed: wall no layer span covers) sum to the traced wall.
func layerTable(spans []span, root uint64, res *repeatResult) {
	self, wall := selfTimes(spans, root)
	if wall <= 0 {
		res.fail("trace: no driver.timed span")
		return
	}
	jobs := float64(res.Jobs)
	count := map[string]int{}
	total := map[string]float64{}
	for _, s := range spans {
		count[s.Name]++
		total[s.Name] += float64(s.dur())
	}
	layerSelf := map[string]float64{}
	var sum float64
	for name, ns := range self {
		sum += ns
		res.Table = append(res.Table, tableRow{
			Span: name, Count: count[name],
			SelfUsPerJ: ns / 1e3 / jobs, TotalUsPerJ: total[name] / 1e3 / jobs,
			Share: ns / float64(wall),
		})
		if name != "driver.timed" {
			layerSelf[layerOf(name)] += ns
		}
	}
	sort.Slice(res.Table, func(a, b int) bool { return res.Table[a].Span < res.Table[b].Span })
	if d := (sum - float64(wall)) / float64(wall); d > 1e-6 || d < -1e-6 {
		res.fail("trace: layer rows sum to %.0f ns, traced wall is %d ns", sum, wall)
	}
	res.Metrics["driver.residual_share"] = self["driver.timed"] / float64(wall)
	for _, layer := range []string{"service", "metasched", "strategy", "criticalworks", "federation"} {
		res.Metrics[layer+".self_us_per_job"] = layerSelf[layer] / 1e3 / jobs
	}
	res.Metrics["criticalworks.dp_us_per_job"] = total["criticalworks.dp"] / 1e3 / jobs
	res.Metrics["service.process_us_per_job"] = (total["service.process"] + total["service.process_batch"]) / 1e3 / jobs

	p50us := func(metric string, names ...string) {
		d := durations(spans, root, names...)
		for i := range d {
			d[i] /= 1e3
		}
		res.setP50(metric, d)
	}
	p50us("service.submit_us_p50", "service.submit")
	p50us("metasched.adopt_us_p50", "metasched.adopt")
	p50us("metasched.fallback_us_p50", "metasched.fallback")
	p50us("strategy.generate_us_p50", "strategy.generate")
	p50us("criticalworks.build_us_p50", "criticalworks.build")
	p50us("sim.quiesce_us_p50", "driver.quiesce")
	p50us("federation.submit_us_p50", "federation.submit")
	p50us("federation.handoff_us_p50", "federation.handoff")
	p50us("federation.member_handoff_us_p50", "federation.member_handoff")
	p50us("federation.terminal_notice_us_p50", "federation.terminal_notice")
	res.Metrics["strategy.generate_us_p99"] = tail(durations(spans, root, "strategy.generate")) / 1e3
}

// promTotals scrapes a registry the way GET /metrics does and sums every
// family over its label sets; histograms contribute their _count and _sum
// series. It returns the totals and how long the scrape took.
func promTotals(reg *telemetry.Registry) (map[string]float64, time.Duration, error) {
	var buf bytes.Buffer
	t0 := time.Now()
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, 0, err
	}
	took := time.Since(t0)
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		out[name] += v
	}
	return out, took, sc.Err()
}
