// Package resource models the distributed computing environment of the
// paper: autonomous heterogeneous processor nodes grouped into domains,
// each with a reservation calendar managed by its local batch system.
//
// Node performance follows §4 of the paper: relative performance in (0,1],
// with three reporting groups — "fast" (0.66–1.0), "medium" (0.33–0.66) and
// "slow" (exactly the 0.33 floor) — and four estimation tiers matching the
// §3 estimation table columns T_i1..T_i4 (a type-k node runs a task k times
// slower than the type-1 reference).
package resource

import (
	"fmt"
	"sort"

	"repro/internal/simtime"
)

// NodeID identifies a node within an Environment.
type NodeID int

// Group is the paper's performance-band classification used in Fig. 3b and
// Fig. 4a reporting.
type Group int

// Performance groups in §4's terms.
const (
	GroupFast   Group = iota // relative performance 0.66–1.0
	GroupMedium              // 0.33–0.66
	GroupSlow                // 0.33 ("slow" nodes)
)

// String returns the paper's name for the group.
func (g Group) String() string {
	switch g {
	case GroupFast:
		return "fast"
	case GroupMedium:
		return "medium"
	case GroupSlow:
		return "slow"
	default:
		return fmt.Sprintf("Group(%d)", int(g))
	}
}

// GroupOf classifies a relative performance value per §4: the third group
// sits exactly at the 0.33 floor, everything up to 0.66 is medium, and the
// rest is fast.
func GroupOf(perf float64) Group {
	switch {
	case perf <= 0.34:
		return GroupSlow
	case perf <= 0.66:
		return GroupMedium
	default:
		return GroupFast
	}
}

// Tier is the estimation-table column (1 = fastest reference nodes,
// 4 = slowest) of §3's user estimation table.
type Tier int

// NumTiers is the number of estimation levels in the §3 table.
const NumTiers = 4

// TierOf maps relative performance to the nearest estimation tier: a node
// with performance p runs a task in about BaseTime/p, and tier k's estimate
// is k×BaseTime, so k = round(1/p) clamped to [1, NumTiers].
func TierOf(perf float64) Tier {
	if perf <= 0 {
		return NumTiers
	}
	k := int(1.0/perf + 0.5)
	if k < 1 {
		k = 1
	}
	if k > NumTiers {
		k = NumTiers
	}
	return Tier(k)
}

// Estimate is §3's user estimate of a task on a node of tier k: T_ik =
// k × T_i1, the task's base (tier-1) time times the tier. Planning (strategy
// construction, reservations) always uses these tier-quantized estimates;
// the actual execution time on a concrete node follows its continuous
// relative performance and generally differs, which is the forecast error
// Fig. 4c studies.
func Estimate(base simtime.Time, k Tier) simtime.Time { return base * simtime.Time(k) }

// Node is one autonomous processor node. Perf is relative performance in
// (0,1].
type Node struct {
	ID     NodeID
	Name   string
	Perf   float64
	Domain string

	cal *Calendar

	// Fault-injection state. downDepth counts nested outage causes (an
	// individual node crash and a whole-domain outage may overlap); the
	// node is up iff the depth is zero.
	downDepth int
	downSince simtime.Time
	downtime  simtime.Time
	outages   []simtime.Interval
}

// NewNode creates a node with an empty calendar. Perf must lie in (0, 1].
func NewNode(id NodeID, name string, perf float64, domain string) *Node {
	if perf <= 0 || perf > 1 {
		panic(fmt.Sprintf("resource: node %q has performance %v outside (0,1]", name, perf))
	}
	return &Node{ID: id, Name: name, Perf: perf, Domain: domain, cal: NewCalendar()}
}

// Group returns the node's performance group.
func (n *Node) Group() Group { return GroupOf(n.Perf) }

// Tier returns the node's estimation tier.
func (n *Node) Tier() Tier { return TierOf(n.Perf) }

// Calendar returns the node's reservation calendar.
func (n *Node) Calendar() *Calendar { return n.cal }

// Up reports whether the node is currently available. A fresh node is up.
func (n *Node) Up() bool { return n.downDepth == 0 }

// MarkDown records an outage cause starting at now. Outage causes nest:
// a node inside a domain-wide outage that also crashed individually only
// comes back up once both causes have been marked up. It reports whether
// this call transitioned the node from up to down.
func (n *Node) MarkDown(now simtime.Time) bool {
	n.downDepth++
	if n.downDepth == 1 {
		n.downSince = now
		return true
	}
	return false
}

// MarkUp removes one outage cause at now, reporting whether the node
// transitioned back to up. Calling MarkUp on an up node panics: it always
// indicates an unbalanced fault schedule.
func (n *Node) MarkUp(now simtime.Time) bool {
	if n.downDepth == 0 {
		panic(fmt.Sprintf("resource: MarkUp on up node %q", n.Name))
	}
	n.downDepth--
	if n.downDepth == 0 {
		n.downtime += now - n.downSince
		n.outages = append(n.outages, simtime.Interval{Start: n.downSince, End: now})
		return true
	}
	return false
}

// Downtime returns the cumulative model time the node has spent down, the
// open outage (if any) counted up to now.
func (n *Node) Downtime(now simtime.Time) simtime.Time {
	d := n.downtime
	if n.downDepth > 0 && now > n.downSince {
		d += now - n.downSince
	}
	return d
}

// Outages returns the closed outage windows recorded so far, in order.
func (n *Node) Outages() []simtime.Interval {
	return append([]simtime.Interval(nil), n.outages...)
}

// Environment is the full set of nodes in the virtual organization.
type Environment struct {
	nodes []*Node
}

// NewEnvironment wraps the given nodes; IDs must be dense 0..n-1.
func NewEnvironment(nodes []*Node) *Environment {
	for i, n := range nodes {
		if int(n.ID) != i {
			panic(fmt.Sprintf("resource: node %q has ID %d at index %d", n.Name, n.ID, i))
		}
	}
	return &Environment{nodes: nodes}
}

// NumNodes returns the number of nodes.
func (e *Environment) NumNodes() int { return len(e.nodes) }

// Node returns the node with the given ID.
func (e *Environment) Node(id NodeID) *Node { return e.nodes[id] }

// Nodes returns all nodes in ID order. The slice is shared; callers must
// not modify it.
func (e *Environment) Nodes() []*Node { return e.nodes }

// ByDomain returns the nodes of one domain, in ID order.
func (e *Environment) ByDomain(domain string) []*Node {
	var out []*Node
	for _, n := range e.nodes {
		if n.Domain == domain {
			out = append(out, n)
		}
	}
	return out
}

// Domains returns the sorted list of distinct domain names.
func (e *Environment) Domains() []string {
	seen := make(map[string]bool)
	var out []string
	for _, n := range e.nodes {
		if !seen[n.Domain] {
			seen[n.Domain] = true
			out = append(out, n.Domain)
		}
	}
	sort.Strings(out)
	return out
}

// DomainUp reports whether at least one node of the domain is available.
func (e *Environment) DomainUp(domain string) bool {
	for _, n := range e.nodes {
		if n.Domain == domain && n.Up() {
			return true
		}
	}
	return false
}
