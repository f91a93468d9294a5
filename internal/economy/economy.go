// Package economy implements the virtual organization's economic model of
// resource distribution (§3, refs [14]): costs are expressed in
// conventional units ("quotas", not real money), a user pays more to use a
// more powerful resource or to start a task sooner, and the job cost
// function is
//
//	CF = Σ_i ceil(V_i / T_i)
//
// where V_i is the task's relative computation volume and T_i the real load
// time of the chosen node by the task. A shorter T_i on a faster node raises
// the V/T term — paying for speed — reproducing CF2 = min in Fig. 2(b).
package economy

import (
	"fmt"

	"repro/internal/simtime"
)

// TaskCharge is the paper's per-task cost term ceil(V/T). A zero or
// negative load time is a scheduling bug and panics.
func TaskCharge(volume int64, loadTime simtime.Time) int64 {
	if loadTime <= 0 {
		panic(fmt.Sprintf("economy: non-positive load time %d", loadTime))
	}
	return (volume + int64(loadTime) - 1) / int64(loadTime)
}
