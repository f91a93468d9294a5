// Command gridbench is the repo's whole-path performance ledger: four
// workloads that stress different layers of the scheduler, end-to-end
// metrics with fixed regression bounds, per-layer metrics from a separate
// traced pass, and an audit of every output. See README.md in this
// directory for the workload table, the metric glossary and how to read
// the layer table.
//
// Usage (from the repo root):
//
//	go run ./benchmark -seed 1            # all four workloads, timed + traced
//	go run ./benchmark -quick             # ≤100 jobs, one repeat + traced
//	go run ./benchmark -aa 3              # three sets back to back, against the bounds
//	go run ./benchmark -workload svc_steady -seconds 20 -trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// options are the parsed flags.
type options struct {
	seed     uint64
	workload string
	seconds  int
	trace    int // -1: timed repeats plus one traced repeat (the ledger run)
	quick    bool
	aa       int
	out      io.Writer
}

func main() {
	var o options
	child := flag.Bool("child", false, "internal: run one repeat and print its result as JSON")
	repeat := flag.Int("repeat", 0, "internal: repeat index of a -child run")
	jobs := flag.Int("jobs", 0, "internal: corpus size of a -child run")
	flag.Uint64Var(&o.seed, "seed", 1, "corpus seed: the same seed gives the same jobs")
	flag.StringVar(&o.workload, "workload", "", "run only this workload and end with one JSON result line")
	flag.IntVar(&o.seconds, "seconds", 0, "size the run to about this many seconds per workload (0 = the ledger's repeat counts)")
	flag.IntVar(&o.trace, "trace", -1, "0: untraced repeats, end-to-end metrics; 1: untraced+traced pairs, per-layer metrics; default: both")
	flag.BoolVar(&o.quick, "quick", false, "smoke run: ≤100 jobs per workload, one repeat plus the traced one")
	flag.IntVar(&o.aa, "aa", 0, "run this many full sets back to back and compare their medians against the bounds")
	flag.Parse()
	o.out = os.Stdout

	if *child {
		os.Exit(childMain(o.workload, o.seed, *repeat, *jobs, o.trace == 1))
	}
	failed, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridbench: %v\n", err)
		os.Exit(2)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// childMain runs one repeat in this (fresh) process, so heap state never
// leaks between workloads and peak RSS is the repeat's own.
func childMain(name string, seed uint64, repeat, jobs int, traced bool) int {
	res, err := runRepeat(name, seed, repeat, jobs, traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridbench child %s/%d: %v\n", name, repeat, err)
		return 2
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		return 2
	}
	return 0
}

func runRepeat(name string, seed uint64, repeat, jobs int, traced bool) (*repeatResult, error) {
	wl := workloadByName(name)
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	bdir, err := benchDir()
	if err != nil {
		return nil, err
	}
	work := filepath.Join(bdir, ".work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	rc := &runCtx{wl: wl, seed: corpusSeed(seed, repeat), jobs: jobs, workDir: dir}
	if traced {
		rc.tr = newTracing(wl.Tracers)
	}
	res, err := wl.run(rc)
	if err != nil {
		return nil, err
	}
	res.Repeat = repeat
	res.Metrics["peak_rss_mb"] = peakRSSMiB()
	if traced {
		spans, root, err := rc.tr.collect()
		if err != nil {
			return nil, err
		}
		layerTable(spans, root, res)
		if res.Metrics["driver.fsync_probe_us"], err = fsyncProbe(dir); err != nil {
			return nil, err
		}
		// A traced repeat reports every per-layer metric: the ones its
		// workload never touches read 0, which is the prediction for them.
		for _, d := range perLayer {
			if _, ok := res.Metrics[d.Name]; !ok {
				res.Metrics[d.Name] = 0
			}
		}
		if repeat == 0 {
			if err := rc.tr.writeTo(filepath.Join(bdir, "out", "trace-"+name+".jsonl")); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// plan is how many repeats of a workload one set makes.
type plan struct {
	wl      *workloadDef
	jobs    int
	repeats int // untraced: the end-to-end metrics
	traced  int // traced repeats of the first corpora: the per-layer metrics
}

func plans(o options) ([]plan, error) {
	var out []plan
	for _, wl := range workloads {
		if o.workload != "" && o.workload != wl.Name {
			continue
		}
		p := plan{wl: wl, jobs: wl.Jobs, repeats: wl.Repeats, traced: 1}
		if o.seconds > 0 {
			p.repeats = wl.repeatsFor(o.seconds)
		}
		if o.quick {
			p.jobs, p.repeats = min(wl.Jobs, 100), 1
		}
		switch o.trace {
		case 0:
			p.traced = 0
		case 1:
			// Pairs: each corpus runs untraced and traced, half as many.
			p.repeats = max(1, p.repeats/2)
			p.traced = p.repeats
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	return out, nil
}

// set is the outcome of one full set of repeats.
type set struct {
	timed  map[string][]*repeatResult
	traced map[string][]*repeatResult
}

// runSet schedules the repeats round-robin across workloads — repeat 0 of
// each, then repeat 1 … — each in a fresh child process, so a noisy minute
// costs every workload one outlier instead of shifting one workload's
// median.
func runSet(o options, ps []plan) (*set, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	s := &set{timed: map[string][]*repeatResult{}, traced: map[string][]*repeatResult{}}
	for _, traced := range []bool{false, true} {
		for r := 0; ; r++ {
			ran := false
			for _, p := range ps {
				n, into := p.repeats, s.timed
				if traced {
					n, into = p.traced, s.traced
				}
				if r >= n {
					continue
				}
				ran = true
				res, err := spawn(exe, p, o.seed, r, traced)
				if err != nil {
					return nil, err
				}
				into[p.wl.Name] = append(into[p.wl.Name], res)
			}
			if !ran {
				break
			}
		}
	}
	return s, nil
}

func spawn(exe string, p plan, seed uint64, repeat int, traced bool) (*repeatResult, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-child", "-workload", p.wl.Name, "-seed", strconv.FormatUint(seed, 10),
		"-repeat", strconv.Itoa(repeat), "-jobs", strconv.Itoa(p.jobs), "-trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s repeat %d: %w", p.wl.Name, repeat, err)
	}
	var res repeatResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("%s repeat %d: bad child output: %w", p.wl.Name, repeat, err)
	}
	return &res, nil
}

// run executes the requested sets and prints the report. It returns the
// total failed count.
func run(o options) (int, error) {
	ps, err := plans(o)
	if err != nil {
		return 0, err
	}
	printHost(o.out, o)
	if o.aa > 0 {
		return runAA(o, ps)
	}
	s, err := runSet(o, ps)
	if err != nil {
		return 0, err
	}
	failed := 0
	for _, p := range ps {
		rep := report(p, s)
		rep.print(o.out)
		failed += rep.Failed
		if o.workload != "" {
			rep.printJSON(o.out, o.trace == 1)
		}
	}
	return failed, nil
}

// wlReport is one workload's numbers from one set.
type wlReport struct {
	plan      plan
	Attempted int
	Failed    int
	Failures  []string
	E2E       map[string]summary
	Layer     map[string]summary
	Samples   map[string]int
	Table     []tableRow
	TableWall float64 // traced wall of repeat 0, us per job
}

func report(p plan, s *set) *wlReport {
	name := p.wl.Name
	rep := &wlReport{plan: p, E2E: map[string]summary{}, Layer: map[string]summary{}, Samples: map[string]int{}}
	collect := func(rs []*repeatResult, defs []metricDef, into map[string]summary) {
		for _, d := range defs {
			var vals []float64
			for _, r := range rs {
				if v, ok := r.Metrics[d.Name]; ok {
					vals = append(vals, v)
				}
				if n := r.Samples[d.Name]; n > 0 {
					rep.Samples[d.Name] = n
				}
			}
			into[d.Name] = summarize(vals)
		}
	}
	for _, r := range append(append([]*repeatResult(nil), s.timed[name]...), s.traced[name]...) {
		rep.Attempted += r.Jobs
		rep.Failed += r.Failed
		rep.Failures = append(rep.Failures, r.Failures...)
	}
	collect(s.timed[name], endToEnd, rep.E2E)
	// Per-layer metrics come from the traced repeats; a set without any
	// still reports the counts its untraced repeats read.
	layerFrom := s.traced[name]
	if len(layerFrom) == 0 {
		layerFrom = s.timed[name]
	}
	collect(layerFrom, perLayer, rep.Layer)
	// The driver.* host times are, like the end-to-end metrics, medians
	// over the untraced repeats.
	var untraced []metricDef
	for _, d := range perLayer {
		if d.Untraced {
			untraced = append(untraced, d)
		}
	}
	collect(s.timed[name], untraced, rep.Layer)

	var overhead []float64
	for i, tr := range s.traced[name] {
		if i >= len(s.timed[name]) {
			break
		}
		un := s.timed[name][i]
		overhead = append(overhead, tr.WallS/un.WallS)
		if p.wl.Exact {
			for _, d := range allMetrics() {
				if d.Exact && un.Metrics[d.Name] != tr.Metrics[d.Name] {
					rep.Failed++
					rep.Failures = append(rep.Failures, fmt.Sprintf("repeat %d: %s is %v untraced and %v traced", i, d.Name, un.Metrics[d.Name], tr.Metrics[d.Name]))
				}
			}
		}
	}
	if len(overhead) > 0 {
		rep.Layer["driver.trace_overhead_ratio"] = summarize(overhead)
	}
	if trs := s.traced[name]; len(trs) > 0 {
		rep.Table = trs[0].Table
		rep.TableWall = trs[0].WallS * 1e6 / float64(trs[0].Jobs)
	}
	return rep
}

func printHost(w io.Writer, o options) {
	dir, err := benchDir()
	if err != nil {
		dir = "?"
	}
	work := filepath.Join(dir, ".work")
	fmt.Fprintf(w, "gridbench seed=%d nproc=%d GOMAXPROCS=%d %s workdir=%s fs=%s\n",
		o.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), work, fsType(dir))
}

// fsType names the filesystem holding path, from /proc/mounts: the
// longest mount point that prefixes it.
func fsType(path string) string {
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (path == mp || strings.HasPrefix(path, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}

func (r *wlReport) print(w io.Writer) {
	p := r.plan
	fmt.Fprintf(w, "\n== %s: %d repeats × %d jobs, %d traced — attempted=%d failed=%d\n",
		p.wl.Name, p.repeats, p.jobs, p.traced, r.Attempted, r.Failed)
	fmt.Fprintf(w, "   %s\n", p.wl.Why)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	line := func(d metricDef, s summary) {
		if s.N == 0 {
			return
		}
		extra := ""
		if n := r.Samples[d.Name]; n > 0 {
			extra = fmt.Sprintf(" samples=%d", n)
		}
		if d.Bound > 0 {
			extra += fmt.Sprintf(" bound=%.3g%%", d.Bound*100)
		}
		fmt.Fprintf(w, "   %-40s %14.6g %-7s [%.6g %.6g] n=%d%s\n", d.Name, s.Median, d.Unit, s.Q1, s.Q3, s.N, extra)
	}
	fmt.Fprintf(w, "  end-to-end: median [q1 q3] over untraced repeats\n")
	for _, d := range endToEnd {
		line(d, r.E2E[d.Name])
	}
	fmt.Fprintf(w, "  per-layer: median [q1 q3] over traced repeats (counts: every repeat; driver.* host times: untraced repeats)\n")
	for _, d := range perLayer {
		line(d, r.Layer[d.Name])
	}
	if len(r.Table) > 0 {
		fmt.Fprintf(w, "  layer table: traced repeat 0, wall %.1f us/job; self = wall attributed to the span alone\n", r.TableWall)
		fmt.Fprintf(w, "   %-28s %9s %14s %14s %8s\n", "span", "count", "self us/job", "total us/job", "share")
		var sum float64
		for _, row := range r.Table {
			name := row.Span
			if name == "driver.timed" {
				name += " (residual)"
			}
			sum += row.SelfUsPerJ
			fmt.Fprintf(w, "   %-28s %9d %14.2f %14.2f %7.2f%%\n", name, row.Count, row.SelfUsPerJ, row.TotalUsPerJ, row.Share*100)
		}
		fmt.Fprintf(w, "   %-28s %9s %14.2f\n", "sum", "", sum)
	}
}

// printJSON ends a single-workload run with the one-line result object:
// the end-to-end metrics, or with traced the per-layer ones.
func (r *wlReport) printJSON(w io.Writer, traced bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, from := endToEnd, r.E2E
	if traced {
		defs, from = perLayer, r.Layer
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.Name] = value{Value: from[d.Name].Median, Unit: d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", b)
}

// runAA runs o.aa sets back to back and prints, for every end-to-end
// metric × workload, how far the set medians spread against the metric's
// bound. Exact metrics must agree to the last digit on the workloads one
// goroutine drives.
func runAA(o options, ps []plan) (int, error) {
	for i := range ps {
		ps[i].traced = 0
	}
	var reps [][]*wlReport
	failed := 0
	for i := 0; i < o.aa; i++ {
		s, err := runSet(o, ps)
		if err != nil {
			return 0, err
		}
		var row []*wlReport
		for _, p := range ps {
			r := report(p, s)
			failed += r.Failed
			for _, f := range r.Failures {
				fmt.Fprintf(o.out, "set %d %s FAILED: %s\n", i, p.wl.Name, f)
			}
			row = append(row, r)
		}
		reps = append(reps, row)
		fmt.Fprintf(o.out, "set %d done\n", i)
	}
	fmt.Fprintf(o.out, "\nA/A over %d sets: worst relative difference of set medians from set 0\n", o.aa)
	fmt.Fprintf(o.out, " %-12s %-26s %14s %10s %8s  %s\n", "workload", "metric", "set 0", "diff", "bound", "")
	over := 0
	for wi, p := range ps {
		check := func(d metricDef, pick func(*wlReport) summary) {
			base := pick(reps[0][wi]).Median
			worst := 0.0
			for _, row := range reps[1:] {
				worst = max(worst, relDiff(base, pick(row[wi]).Median))
			}
			verdict := "ok"
			switch {
			case d.Exact && p.wl.Exact && worst != 0:
				verdict = "NOT EXACT"
				over++
			case d.Bound > 0 && worst > d.Bound:
				verdict = "OVER BOUND"
				over++
			case d.Untraced:
				verdict = "no bound"
			}
			if d.Bound > 0 || verdict != "ok" {
				bound := "-"
				if d.Bound > 0 {
					bound = fmt.Sprintf("%.3g%%", d.Bound*100)
				}
				fmt.Fprintf(o.out, " %-12s %-26s %14.6g %9.3f%% %8s  %s\n", p.wl.Name, d.Name, base, worst*100, bound, verdict)
			}
		}
		for _, d := range endToEnd {
			d := d
			check(d, func(r *wlReport) summary { return r.E2E[d.Name] })
		}
		for _, d := range perLayer {
			d := d
			if d.Exact || d.Untraced {
				check(d, func(r *wlReport) summary { return r.Layer[d.Name] })
			}
		}
	}
	if over > 0 {
		fmt.Fprintf(o.out, "%d metric × workload pairs outside their bound\n", over)
	}
	return failed + over, nil
}
