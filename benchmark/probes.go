package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"repro/internal/criticalworks"
	"repro/internal/dag"
	"repro/internal/jobio"
	"repro/internal/journal"
	"repro/internal/metasched"
	"repro/internal/resource"
	"repro/internal/service"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// Probes run only in the traced pass. They call the public read paths of
// resource and criticalworks against the live environment at the moments
// the scheduler is about to use them, so the numbers describe the working
// set the workload really builds, not a synthetic one. They hang off
// Sched.Tracer: the VO calls it on the goroutine that owns the engine, so
// reading the calendars there is race-free on every workload, daemons
// included.

type calendarProbe struct {
	tr   *telemetry.Tracer
	env  *resource.Environment
	jobs map[string]*dag.Job
	last simtime.Time

	snapshotUs, live, firstFreeNs, conflictsNs, reserveReleaseNs []float64
}

func newCalendarProbe(tr *telemetry.Tracer, env *resource.Environment, jobs map[string]*dag.Job) *calendarProbe {
	return &calendarProbe{tr: tr, env: env, jobs: jobs, last: -1}
}

// sink keeps the compiler from discarding probe results.
var sink int

// onEvent probes once per arrival tick — the batch boundary: with placers
// every member of a batch arrives at the same tick.
func (p *calendarProbe) onEvent(e metasched.Event) {
	if e.Kind != metasched.EventArrive || e.At == p.last {
		return
	}
	p.last = e.At
	job := p.jobs[e.Job]
	if job == nil {
		return
	}
	nodes := p.env.Nodes()

	sp := p.tr.Start("driver.probe.snapshot", 0)
	t0 := time.Now()
	snap, _ := criticalworks.SnapshotVersioned(p.env)
	p.snapshotUs = append(p.snapshotUs, float64(time.Since(t0).Nanoseconds())/1e3)
	sp.End()
	sink += len(snap)

	sp = p.tr.Start("driver.probe.resource", 0)
	defer sp.End()
	live, busiest := 0, nodes[0].Calendar()
	for _, n := range nodes {
		c := n.Calendar()
		live += c.Len()
		if c.Len() > busiest.Len() {
			busiest = c
		}
	}
	p.live = append(p.live, float64(live))

	// The next job's first task window against every node's live book.
	length := job.Task(job.TopoOrder()[0]).BaseTime
	iv := simtime.Interval{Start: e.At, End: e.At + length}
	horizon := e.At + 100000
	t0 = time.Now()
	for _, n := range nodes {
		if _, ok := n.Calendar().FirstFree(e.At, length, horizon); ok {
			sink++
		}
	}
	p.firstFreeNs = append(p.firstFreeNs, float64(time.Since(t0).Nanoseconds())/float64(len(nodes)))
	t0 = time.Now()
	for _, n := range nodes {
		sink += len(n.Calendar().ConflictsWith(iv))
	}
	p.conflictsNs = append(p.conflictsNs, float64(time.Since(t0).Nanoseconds())/float64(len(nodes)))

	// A write beside a read on a copy of the busiest book: the reserve
	// drops the derived index, the query after it pays the rebuild.
	c := busiest.Clone()
	start, ok := c.FirstFree(e.At, length, horizon)
	if !ok {
		return
	}
	w := simtime.Interval{Start: start, End: start + length}
	owner := resource.Owner{Job: "<probe>"}
	t0 = time.Now()
	if err := c.Reserve(w, owner); err == nil {
		if _, ok := c.FirstFree(e.At, length, horizon); ok {
			sink++
		}
		c.Release(w, owner)
		p.reserveReleaseNs = append(p.reserveReleaseNs, float64(time.Since(t0).Nanoseconds()))
	}
}

// fillProbes reports the probes' medians; fed_durable pools the samples
// of its two shards.
func fillProbes(res *repeatResult, probes ...*calendarProbe) {
	var all calendarProbe
	for _, p := range probes {
		all.snapshotUs = append(all.snapshotUs, p.snapshotUs...)
		all.live = append(all.live, p.live...)
		all.firstFreeNs = append(all.firstFreeNs, p.firstFreeNs...)
		all.conflictsNs = append(all.conflictsNs, p.conflictsNs...)
		all.reserveReleaseNs = append(all.reserveReleaseNs, p.reserveReleaseNs...)
	}
	res.setP50("criticalworks.snapshot_us_p50", all.snapshotUs)
	res.setP50("resource.reservations_live_p50", all.live)
	res.setP50("resource.firstfree_ns_p50", all.firstFreeNs)
	res.setP50("resource.conflictswith_ns_p50", all.conflictsNs)
	res.setP50("resource.reserve_release_ns_p50", all.reserveReleaseNs)
}

// fsyncProbe times 100 fsyncs of a 4 KiB file in dir, so journal numbers
// are read against what this disk does.
func fsyncProbe(dir string) (float64, error) {
	f, err := os.Create(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 4096)
	var us []float64
	for i := 0; i < 100; i++ {
		if _, err := f.WriteAt(block, 0); err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := f.Sync(); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(us), nil
}

// journalProbe appends, for each job, the three lifecycle records the
// service writes (queued with the wire form, scheduled, completed) to a
// fresh journal with the run's fsync policy and no compaction, timing
// every Append and sizing the directory afterwards.
func journalProbe(dir string, policy journal.FsyncPolicy, wires []jobio.Job, res *repeatResult) error {
	j, _, err := journal.Open(journal.Options{Dir: dir, Fsync: policy, IsTerminal: service.Terminal})
	if err != nil {
		return err
	}
	var us []float64
	var busy time.Duration
	for i := range wires {
		w := &wires[i]
		for _, rec := range []journal.Record{
			{Job: w.Name, State: service.StateQueued, Strategy: strategyCycle[i%len(strategyCycle)], Priority: i % priorityLevels, Wire: w},
			{Job: w.Name, State: service.StateScheduled},
			{Job: w.Name, State: service.StateCompleted},
		} {
			t0 := time.Now()
			if _, err := j.Append(rec); err != nil {
				j.Close()
				return err
			}
			d := time.Since(t0)
			busy += d
			us = append(us, float64(d.Nanoseconds())/1e3)
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	bytes, err := dirBytes(dir)
	if err != nil {
		return err
	}
	res.setP50("journal.append_us_p50", us)
	res.Metrics["journal.busy_us_per_job"] = float64(busy.Nanoseconds()) / 1e3 / float64(len(wires))
	res.Metrics["journal.bytes_per_record"] = float64(bytes) / float64(len(us))
	return nil
}

// fedProbes are fed_durable's offline probes: replaying the copied
// journals read-only, the append probe, and decoding the request bodies.
func fedProbes(workDir string, copies []string, wires []jobio.Job, res *repeatResult) error {
	var records int
	t0 := time.Now()
	for _, dir := range copies {
		rec, err := journal.Recover(dir)
		if err != nil {
			return err
		}
		records += rec.Records + len(rec.Jobs)
	}
	if records > 0 {
		res.Metrics["journal.recover_us_per_record"] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(records)
	}
	if err := journalProbe(filepath.Join(workDir, "journal-probe"), journal.FsyncAlways, wires, res); err != nil {
		return err
	}
	var us []float64
	for i := range wires {
		body, err := json.Marshal(wires[i])
		if err != nil {
			return err
		}
		t0 := time.Now()
		var w jobio.Job
		if err := json.Unmarshal(body, &w); err != nil {
			return err
		}
		if err := w.Validate(); err != nil {
			return err
		}
		if _, err := w.ToJob(); err != nil {
			return err
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	res.setP50("jobio.decode_us_p50", us)
	return nil
}

func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}
