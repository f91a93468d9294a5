// Package economy implements the virtual organization's economic model of
// resource distribution (§3, refs [14]): costs are expressed in
// conventional units ("quotas", not real money), a user pays more to use a
// more powerful resource or to start a task sooner, and the job cost
// function is
//
//	CF = Σ_i ceil(V_i / T_i) × price_i
//
// where V_i is the task's relative computation volume, T_i the real load
// time of the chosen node by the task, and price_i the node's rate (1 in
// the paper's bare model). A shorter T_i on a faster node raises the V/T
// term — paying for speed — reproducing CF2 = min in Fig. 2(b).
package economy

import (
	"fmt"

	"repro/internal/resource"
	"repro/internal/simtime"
)

// Pricing assigns per-tick rates to nodes.
type Pricing interface {
	// Rate returns the price per reserved tick of the node, in quotas.
	Rate(n *resource.Node) float64
}

// FlatPricing charges the same rate everywhere; with rate 1 the cost
// function reduces to the paper's bare Σ ceil(V/T).
type FlatPricing struct{ PerTick float64 }

// Rate implements Pricing.
func (p FlatPricing) Rate(*resource.Node) float64 { return p.PerTick }

// PerformancePricing charges proportionally to node performance:
// rate = Base × perf. The fastest node costs Base, a 0.33 node a third of
// that — the "pay more for a more powerful resource" rule.
type PerformancePricing struct{ Base float64 }

// Rate implements Pricing.
func (p PerformancePricing) Rate(n *resource.Node) float64 { return p.Base * n.Perf }

// TaskCharge is the paper's per-task cost term ceil(V/T). A zero or
// negative load time is a scheduling bug and panics.
func TaskCharge(volume int64, loadTime simtime.Time) int64 {
	if loadTime <= 0 {
		panic(fmt.Sprintf("economy: non-positive load time %d", loadTime))
	}
	return (volume + int64(loadTime) - 1) / int64(loadTime)
}

// WeightedTaskCharge applies the node's rate to the bare charge.
func WeightedTaskCharge(volume int64, loadTime simtime.Time, rate float64) float64 {
	return float64(TaskCharge(volume, loadTime)) * rate
}
