package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/jobio"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// httpState accumulates results across submitter goroutines.
type httpState struct {
	mu             sync.Mutex
	counts         counts
	clientLat      []float64
	accepted       map[string]bool
	backoffRetries int
	backoffSeconds float64
}

// targetPool round-robins submissions across the -target fleet and keeps
// per-target Retry-After state: a target that answered 429/503 with a
// hint is skipped until the hint expires, so one overloaded shard or
// router never stalls the offered load to the rest of the fleet.
type targetPool struct {
	mu    sync.Mutex
	urls  []string
	next  int
	until []time.Time // per-target backoff expiry
}

func newTargetPool(urls []string) *targetPool {
	return &targetPool{urls: urls, until: make([]time.Time, len(urls))}
}

// pick returns the round-robin-next target that is not backing off. When
// every target is backing off, it returns the one whose hint expires
// soonest plus how long the caller must wait before using it — with a
// single target this degenerates to the classic sleep-and-retry.
func (p *targetPool) pick(now time.Time) (idx int, wait time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.urls)
	best, bestWait := -1, time.Duration(0)
	for off := 0; off < n; off++ {
		i := (p.next + off) % n
		w := p.until[i].Sub(now)
		if w <= 0 {
			p.next = (i + 1) % n
			return i, 0
		}
		if best < 0 || w < bestWait {
			best, bestWait = i, w
		}
	}
	p.next = (best + 1) % n
	return best, bestWait
}

// setBackoff records a Retry-After hint for one target; hints only ever
// extend the backoff window.
func (p *targetPool) setBackoff(idx int, d time.Duration, now time.Time) {
	p.mu.Lock()
	if u := now.Add(d); u.After(p.until[idx]) {
		p.until[idx] = u
	}
	p.mu.Unlock()
}

func (p *targetPool) url(idx int) string { return p.urls[idx] }

// run paces the arrival schedule on the wall clock against the live
// fleet: each arrival fires at start + At·tick on its own goroutine, so
// a slow or shedding server never slows the offered load (open loop).
// After the last response it waits for accepted jobs to reach a terminal
// state, then scrapes every target's /metrics again: the server-side
// counters are the difference of the two scrapes, the admission-latency
// percentiles come from the second one's histogram.
func run(o options) (*report, error) {
	if o.jobs <= 0 {
		return nil, fmt.Errorf("-jobs must be positive")
	}
	if len(o.targets) == 0 {
		return nil, fmt.Errorf("at least one -target is required")
	}
	if o.priorities < 1 {
		o.priorities = 1
	}
	cfg := workload.Default(o.seed)
	if o.mean > 0 {
		cfg.MeanInterarrival = o.mean
	}
	gen := workload.New(cfg)
	flow := gen.FlowWith(o.spec, 0, o.jobs, 0)
	client := &http.Client{Timeout: 30 * time.Second}
	pool := newTargetPool(o.targets)

	m0, err := scrapeFleet(client, o.targets)
	if err != nil {
		return nil, err
	}

	st := &httpState{accepted: make(map[string]bool)}
	start := time.Now()
	var wg sync.WaitGroup
	for i, a := range flow {
		due := start.Add(time.Duration(float64(a.At) * float64(o.tick)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, a workload.Arrival) {
			defer wg.Done()
			submitHTTP(o, client, pool, st, i, a)
		}(i, a)
	}
	wg.Wait()

	// Wait for every accepted job to turn terminal (goodput needs the
	// completions, not just the 202s). A job's record lives on whichever
	// target accepted it, so poll the whole fleet and merge.
	deadline := time.Now().Add(o.wait)
	for {
		var recs []service.Record
		for _, target := range o.targets {
			var part []service.Record
			if err := getJSON(client, target+"/v1/jobs", &part); err != nil {
				return nil, fmt.Errorf("poll jobs on %s: %w", target, err)
			}
			recs = append(recs, part...)
		}
		pending := 0
		terminal := map[string]uint64{}
		for _, r := range recs {
			if !st.accepted[r.ID] {
				continue
			}
			if service.Terminal(r.State) {
				terminal[r.State]++
			} else {
				pending++
			}
		}
		if pending == 0 || time.Now().After(deadline) {
			if pending > 0 {
				fmt.Fprintf(os.Stderr, "gridload: %d accepted jobs still pending after %s\n", pending, o.wait)
			}
			st.counts.TerminalByState = terminal
			break
		}
		time.Sleep(250 * time.Millisecond)
	}
	elapsed := time.Since(start).Seconds()

	m1, err := scrapeFleet(client, o.targets)
	if err != nil {
		return nil, err
	}
	c := st.counts
	diff := func(stem string) uint64 { return m1.total[stem] - m0.total[stem] }
	c.Submitted = diff("submitted")
	c.Accepted = diff("accepted")
	c.Completed = diff("completed")
	c.Rejected = diff("rejected")
	c.Shed = diff("shed")
	c.Infeasible = diff("infeasible")
	c.Overloaded = diff("overloaded")
	c.Drained = diff("drained")
	c.QueueHighWater = m1.queueHighWater
	c.EngineTicks = m1.engineNow - m0.engineNow
	if c.EngineTicks > 0 {
		c.GoodputPerKTicks = float64(c.Completed) * 1000 / float64(c.EngineTicks)
	}

	p50, p95, p99, p999 := m1.queueWait()
	wall := wallClock{
		ElapsedSeconds: elapsed,
		AdmissionP50:   p50, AdmissionP95: p95, AdmissionP99: p99, AdmissionP999: p999,
		ClientP50:      percentile(st.clientLat, 0.5),
		ClientP95:      percentile(st.clientLat, 0.95),
		ClientP99:      percentile(st.clientLat, 0.99),
		ClientP999:     percentile(st.clientLat, 0.999),
		BackoffRetries: st.backoffRetries,
		BackoffSeconds: st.backoffSeconds,
	}
	if elapsed > 0 {
		wall.GoodputJobsPerSec = float64(c.Completed) / elapsed
	}
	return &report{
		Config: runConfig{
			Arrival: o.arrival.String(), Strategy: o.strategy, Seed: o.seed,
			Jobs: o.jobs, Priorities: o.priorities,
			MeanInterarrival: cfg.MeanInterarrival,
		},
		Counts: c,
		Wall:   wall,
	}, nil
}

// submitHTTP posts one job to the next round-robin target, honoring
// per-target Retry-After backoff on 429/503 for up to two retries when
// configured: an overloaded target is marked off-limits until its hint
// expires and the retry goes to the next eligible target, sleeping only
// when the whole fleet is backing off. The recorded client latency spans
// the first POST through the final response, backoff included — that is
// what a well-behaved client actually experiences end to end.
func submitHTTP(o options, client *http.Client, pool *targetPool, st *httpState, i int, a workload.Arrival) {
	wire := jobio.FromJob(a.Job)
	wire.Deadline = int64(a.Job.Deadline - a.At)
	body, err := json.Marshal(service.SubmitRequest{Job: wire, Strategy: o.strategy, Priority: i % o.priorities})
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridload: marshal %s: %v\n", wire.Name, err)
		return
	}
	t0 := time.Now()
	var status int
	var retries int
	var backoff float64
	for {
		idx, wait := pool.pick(time.Now())
		if wait > 0 {
			backoff += wait.Seconds()
			time.Sleep(wait)
		}
		resp, err := client.Post(pool.url(idx)+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			fmt.Fprintf(os.Stderr, "gridload: post %s: %v\n", wire.Name, err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
		if status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable {
			break
		}
		secs, ok := parseRetryAfter(resp)
		st.mu.Lock()
		if !ok {
			st.counts.RetryAfterViolations++
		}
		st.mu.Unlock()
		if !o.honorRetry || retries >= 2 {
			break
		}
		if !ok {
			secs = 1
		}
		pool.setBackoff(idx, time.Duration(secs)*time.Second, time.Now())
		retries++
	}
	lat := time.Since(t0).Seconds()

	st.mu.Lock()
	defer st.mu.Unlock()
	st.clientLat = append(st.clientLat, lat)
	st.backoffRetries += retries
	st.backoffSeconds += backoff
	switch status {
	case http.StatusAccepted:
		st.counts.ClientAccepted++
		st.accepted[wire.Name] = true
	case http.StatusTooManyRequests:
		st.counts.Client429++
	case http.StatusServiceUnavailable:
		st.counts.Client503++
	case http.StatusUnprocessableEntity:
		// Infeasible: counted server-side.
	default:
		fmt.Fprintf(os.Stderr, "gridload: %s: unexpected status %d\n", wire.Name, status)
	}
}

// parseRetryAfter extracts a positive whole-seconds Retry-After hint.
func parseRetryAfter(resp *http.Response) (int, bool) {
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		return 0, false
	}
	return secs, true
}

// serviceStems are the grid_service_<stem>_total counters a gridd target
// contributes; a target without them is a gridfront router, which counts
// routerStems as grid_fed_<stem>_total.
var (
	serviceStems = []string{"submitted", "accepted", "completed", "rejected", "shed", "infeasible", "overloaded", "drained"}
	routerStems  = []string{"submitted", "accepted", "completed", "rejected", "drained"}
)

// fleetMetrics is one scrape of every target's /metrics: the admission
// counters summed by stem, the fleet's maximum queue high-water mark, the
// engine clocks summed (the goodput denominator is total scheduling work
// done) and the queue-wait histogram's cumulative buckets merged by bound.
type fleetMetrics struct {
	total          map[string]uint64
	queueHighWater int
	engineNow      int64
	wait           map[float64]uint64
}

// scrapeFleet scrapes every target's /metrics once.
func scrapeFleet(client *http.Client, targets []string) (fleetMetrics, error) {
	fm := fleetMetrics{total: map[string]uint64{}, wait: map[float64]uint64{}}
	for _, target := range targets {
		body, err := get(client, target+"/metrics")
		if err != nil {
			return fm, fmt.Errorf("target %s unreachable: %w", target, err)
		}
		text := string(body)
		samples, err := parseSamples(text)
		if err != nil {
			return fm, fmt.Errorf("target %s: %w", target, err)
		}
		prefix, stems := "grid_service_", serviceStems
		if _, ok := samples["grid_service_submitted_total"]; !ok {
			prefix, stems = "grid_fed_", routerStems
		}
		for _, stem := range stems {
			fm.total[stem] += uint64(samples[prefix+stem+"_total"])
		}
		fm.queueHighWater = max(fm.queueHighWater, int(samples["grid_service_queue_high_water"]))
		fm.engineNow += int64(samples["grid_service_engine_now"])
		// A gridfront router queues on its shards, not locally: it has no
		// wait histogram, and the fleet's is merged from the rest.
		if bounds, cums, err := parseBuckets(text, "grid_service_queue_wait_seconds_bucket"); err == nil {
			for i, b := range bounds {
				fm.wait[b] += cums[i]
			}
		}
	}
	return fm, nil
}

// queueWait estimates the fleet-wide queue-wait percentiles from the merged
// fixed buckets with telemetry.Quantile, the estimate
// telemetry.Histogram.Quantile computes in process, demonstrating that p99
// is recoverable from scrape data. A fleet with no admission queue anywhere
// (only gridfront routers) reports zero percentiles, not a failed run.
func (fm fleetMetrics) queueWait() (p50, p95, p99, p999 float64) {
	if len(fm.wait) == 0 {
		return 0, 0, 0, 0
	}
	bounds := make([]float64, 0, len(fm.wait))
	for b := range fm.wait {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	cums := make([]uint64, len(bounds))
	for i, b := range bounds {
		cums[i] = fm.wait[b]
	}
	q := func(p float64) float64 { return bucketQuantile(bounds, cums, p) }
	return q(0.5), q(0.95), q(0.99), q(0.999)
}

// parseSamples reads the unlabelled samples of a Prometheus text scrape by
// series name.
func parseSamples(text string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return nil, fmt.Errorf("bad sample %q", line)
		}
		out[name] = v
	}
	return out, nil
}

// get fetches url and returns the body.
func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// getJSON fetches url and decodes the body.
func getJSON(client *http.Client, url string, out any) error {
	body, err := get(client, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, out)
}

// bucketQuantile estimates the q-th quantile from a scrape's cumulative
// buckets (bounds ascending, +Inf last) with telemetry.Quantile, which
// takes per-bucket counts with the +Inf bucket after the finite bounds;
// 0 when there is no finite estimate.
func bucketQuantile(bounds []float64, cums []uint64, q float64) float64 {
	finite := bounds
	if n := len(bounds); n > 0 && math.IsInf(bounds[n-1], 1) {
		finite = bounds[:n-1]
	}
	counts := make([]uint64, len(finite)+1)
	var prev uint64
	for i, cum := range cums {
		if cum > prev {
			counts[i], prev = cum-prev, cum
		}
	}
	return finiteOrZero(telemetry.Quantile(finite, counts, q))
}

// parseBuckets extracts a histogram's cumulative buckets from Prometheus
// text format: `name{le="BOUND"} COUNT` lines, +Inf included. Bounds are
// returned ascending, so the +Inf bucket is last.
func parseBuckets(text, name string) (bounds []float64, cums []uint64, err error) {
	type bkt struct {
		le  float64
		cum uint64
	}
	var bkts []bkt
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name+"{") {
			continue
		}
		leStart := strings.Index(line, `le="`)
		if leStart < 0 {
			continue
		}
		rest := line[leStart+4:]
		leEnd := strings.Index(rest, `"`)
		if leEnd < 0 {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		cum, err := strconv.ParseUint(fields[len(fields)-1], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("parse %s: bad count in %q", name, line)
		}
		le, err := strconv.ParseFloat(rest[:leEnd], 64) // "+Inf" parses to +Inf
		if err != nil {
			return nil, nil, fmt.Errorf("parse %s: bad le in %q", name, line)
		}
		bkts = append(bkts, bkt{le: le, cum: cum})
	}
	if len(bkts) == 0 {
		return nil, nil, fmt.Errorf("no %s series in scrape", name)
	}
	sort.Slice(bkts, func(i, j int) bool { return bkts[i].le < bkts[j].le })
	for _, b := range bkts {
		bounds = append(bounds, b.le)
		cums = append(cums, b.cum)
	}
	return bounds, cums, nil
}
