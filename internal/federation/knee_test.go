package federation

import (
	"fmt"
	"syscall"
	"testing"
	"time"

	"repro/internal/jobio"
	"repro/internal/journal"
	"repro/internal/metasched"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// BenchmarkFederationKnee is BenchmarkServiceKnee through the federation:
// a router and two shards on loopback HTTP (startHTTPFederation), each
// tier over its own journal that syncs every record (FsyncAlways), take b.N
// jobs of the §4 corpus from C ∈ {1, 4, 16, 64} closed-loop clients, job i
// from client i mod C under strategy S1, S2, S3, MS1 in turn. A client
// submits to the router and sends its next job once its shard has decided
// the last one: the shard's OnTerminal hands the record to the client's
// channel, so no client polls. It reports jobs/s, journal fsyncs per job at
// the router and at the shards (both shards' together), the process's CPU
// ms per job (user and system, getrusage) and the share of the b.N jobs
// that completed by their deadline. It claims and gates nothing.
func BenchmarkFederationKnee(b *testing.B) {
	cycle := []string{"S1", "S2", "S3", "MS1"}
	for _, clients := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("C=%d", clients), func(b *testing.B) {
			flow := workload.New(workload.Default(2)).Flow(0, b.N, 0)
			wires := make([]jobio.Job, len(flow))
			owner := make(map[string]int, len(flow))
			for i, a := range flow {
				wires[i] = jobio.FromJob(a.Job)
				wires[i].Deadline = a.Job.Deadline - a.At
				owner[a.Job.Name] = i % clients
			}
			// A client has one job outstanding, so the send, made under the
			// shard's lock, never blocks on a buffer of one.
			outcomes := make([]chan service.Record, clients)
			for c := range outcomes {
				outcomes[c] = make(chan service.Record, 1)
			}
			routerReg, shardReg := telemetry.NewRegistry(), telemetry.NewRegistry()
			openJournal := func(reg *telemetry.Registry) *journal.Journal {
				j, _, err := journal.Open(journal.Options{Dir: b.TempDir(), Fsync: journal.FsyncAlways,
					IsTerminal: service.Terminal, Telemetry: reg})
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { _ = j.Close() })
				return j
			}
			f := startHTTPFederation(b, 2, func(_ int, cfg *service.Config) bool {
				cfg.Env = workload.New(workload.Default(1)).Environment(2)
				cfg.Journal = openJournal(shardReg)
				notify := cfg.OnTerminal
				cfg.OnTerminal = func(r service.Record) {
					notify(r)
					outcomes[owner[r.ID]] <- r
				}
				return false
			}, func(cfg *Config) {
				cfg.Seed, cfg.Telemetry, cfg.Journal = 1, routerReg, openJournal(routerReg)
				cfg.HeartbeatInterval = time.Hour
			})
			waitJoined(b, f)
			routerFsyncs := routerReg.Counter("grid_journal_fsyncs_total", "")
			shardFsyncs := shardReg.Counter("grid_journal_fsyncs_total", "")
			router0, shard0, cpu0 := routerFsyncs.Value(), shardFsyncs.Value(), cpuTime()
			errs := make(chan error, clients)
			b.ResetTimer()
			start := time.Now()
			for c := range clients {
				go func() {
					for i := c; i < len(wires); i += clients {
						if _, err := f.router.Submit(wires[i], cycle[i%len(cycle)], 0); err != nil {
							errs <- fmt.Errorf("submit %s: %w", wires[i].Name, err)
							return
						}
						<-outcomes[c]
					}
					errs <- nil
				}()
			}
			for range clients {
				if err := <-errs; err != nil {
					b.Fatal(err)
				}
			}
			elapsed := time.Since(start)
			b.StopTimer()
			cpu := cpuTime() - cpu0
			met := 0
			for _, svc := range f.svcs {
				for _, r := range svc.Results() {
					if r.State == metasched.StateCompleted && r.Finish <= r.Job.Deadline {
						met++
					}
				}
			}
			n := float64(b.N)
			b.ReportMetric(n/elapsed.Seconds(), "jobs/s")
			b.ReportMetric(float64(routerFsyncs.Value()-router0)/n, "router-fsyncs/job")
			b.ReportMetric(float64(shardFsyncs.Value()-shard0)/n, "shard-fsyncs/job")
			b.ReportMetric(float64(cpu.Microseconds())/1e3/n, "cpu-ms/job")
			b.ReportMetric(float64(met)/n, "deadline_met_ratio")
		})
	}
}

// cpuTime is the user and system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
