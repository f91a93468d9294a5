package experiments

import (
	"testing"

	"repro/internal/metasched"
	"repro/internal/strategy"
)

// TestAvailabilitySweepDrivesTheFallbackLadder keeps the availability goldens
// and differentials honest: at the degraded levels of the sweep they run
// (seed 3, 12 jobs), jobs must actually lose their plan and go through
// JobManager.fallback. Read off the VO trace: every evict event is followed
// by a fallback call and every task-failed event either schedules a retry or
// calls fallback, so the ladder was entered evict + task-failed − retry
// times; it comes out in a fallback event (a remaining supporting level
// re-anchored) or hands the job on (a reallocate event, or a rejection).
// Without this, byte-equality on that sweep could silently come to mean
// "nothing was ever re-anchored".
func TestAvailabilitySweepDrivesTheFallbackLadder(t *testing.T) {
	cfg := DefaultConfig(3, 12)
	for _, avail := range []float64{0.95, 0.8} {
		entered, fallbacks, reallocs := 0, 0, 0
		for _, typ := range []strategy.Type{strategy.S1, strategy.S2, strategy.S3} {
			var tr metasched.MemoryTracer
			if _, err := runAvailability(cfg, typ, avail, &tr); err != nil {
				t.Fatal(err)
			}
			entered += tr.Count(metasched.EventEvict) + tr.Count(metasched.EventTaskFailed) - tr.Count(metasched.EventRetry)
			fallbacks += tr.Count(metasched.EventFallback)
			reallocs += tr.Count(metasched.EventReallocate)
		}
		t.Logf("availability %.2f: ladder entered %d times, %d fallbacks, %d reallocations", avail, entered, fallbacks, reallocs)
		if entered == 0 || fallbacks+reallocs == 0 {
			t.Errorf("availability %.2f: the sweep no longer exercises the fallback path (entered %d times, %d fallbacks, %d reallocations)",
				avail, entered, fallbacks, reallocs)
		}
	}
}
