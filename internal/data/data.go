// Package data models the data storage and replication policies that
// distinguish the paper's strategy families (§4):
//
//   - ActiveReplication (S1/MS1): data products are proactively replicated;
//     once a dataset has been copied to a node, later reads there are free,
//     and the replication pipeline halves the effective first-copy time.
//   - RemoteAccess (S2): every cross-node consumer pays the full transfer
//     time, every time; nothing is cached.
//   - StaticStorage (S3): all data products live on a fixed storage node;
//     a transfer between tasks on different nodes pays the producer→storage
//     and storage→consumer legs (2× base), which strongly rewards
//     co-locating tasks.
//
// The Catalog tracks replica locations per job so Cost is stateful under
// ActiveReplication, exactly the "active data replication policy" effect
// that lowers S1's collision pressure on fast nodes (Fig. 3b).
package data

import (
	"fmt"

	"repro/internal/resource"
	"repro/internal/simtime"
)

// Policy selects a data storage/replication model.
type Policy int

// The three policies of §4's strategy table.
const (
	ActiveReplication Policy = iota
	RemoteAccess
	StaticStorage
)

// String names the policy as in the paper's strategy descriptions.
func (p Policy) String() string {
	switch p {
	case ActiveReplication:
		return "active-replication"
	case RemoteAccess:
		return "remote-access"
	case StaticStorage:
		return "static-storage"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// DatasetID identifies a data product within a job. The critical-works
// scheduler uses the producing task's name, so all transfers fanning out of
// one task share a dataset: once P1's output is replicated to a node, both
// D1- and D2-style consumers there read it for free under active
// replication (the data-grid file-replica model of OptorSim/ChicSim that
// the paper compares against).
type DatasetID struct {
	Job     string
	Dataset string
}

// Catalog tracks replica placement for datasets under one policy.
// The zero value is not usable; call NewCatalog.
type Catalog struct {
	policy  Policy
	storage resource.NodeID // used by StaticStorage
	replica map[DatasetID]map[resource.NodeID]bool
}

// NewCatalog creates a catalog. storageNode is only meaningful for
// StaticStorage and names the node holding all data products.
func NewCatalog(p Policy, storageNode resource.NodeID) *Catalog {
	return &Catalog{
		policy:  p,
		storage: storageNode,
		replica: make(map[DatasetID]map[resource.NodeID]bool),
	}
}

// Policy returns the catalog's policy.
func (c *Catalog) Policy() Policy { return c.policy }

// TransferTime returns the planned time for moving dataset (of job
// jobName) from the producer's node to the consumer's node, given the base
// (remote-access) transfer time. It does not mutate replica state; call
// Commit when the placement is adopted.
//
// Co-locating producer and consumer does NOT waive the transfer: in the
// paper's model data transfers are explicit pipeline stages that take
// wall time wherever they run (Fig. 2(b)'s Distribution 1 shows D1
// between P1/1 and P2/1 — both on node 1 — still occupying a tick). Only
// an already-present replica (active replication) or residence on the
// static-storage node removes a leg.
func (c *Catalog) TransferTime(jobName, dataset string, base simtime.Time, from, to resource.NodeID) simtime.Time {
	switch c.policy {
	case ActiveReplication:
		ds := DatasetID{Job: jobName, Dataset: dataset}
		if c.replica[ds][to] {
			return 0 // a replica is already there
		}
		// Proactive replication overlaps part of the copy with upstream
		// execution: the consumer observes about 3/4 of the nominal time.
		return (3*base + 3) / 4
	case RemoteAccess:
		return base
	case StaticStorage:
		// producer -> storage -> consumer, half the nominal time per leg
		// (the storage node is well provisioned); co-location with the
		// storage node removes the respective leg. A full cross-node
		// transfer therefore costs about the remote-access baseline, and
		// the S3 penalty comes from coarse-grain serialization rather
		// than from transfer inflation.
		var t simtime.Time
		if from != c.storage {
			t += (base + 1) / 2
		}
		if to != c.storage {
			t += (base + 1) / 2
		}
		return t
	default:
		return base
	}
}

// MinTransferTime is a lower bound on TransferTime over every (from, to)
// node pair in the catalog's current state: what moving the dataset costs
// at the very least, wherever producer and consumer end up. Admissibility
// tests use it to bound a chain's finish before any node is chosen.
func (c *Catalog) MinTransferTime(jobName, dataset string, base simtime.Time) simtime.Time {
	switch c.policy {
	case ActiveReplication:
		if len(c.replica[DatasetID{Job: jobName, Dataset: dataset}]) > 0 {
			return 0 // some node already holds a replica
		}
		return (3*base + 3) / 4
	case StaticStorage:
		return 0 // both ends on the storage node
	default:
		return base
	}
}

// Commit records that the dataset has been materialized at node `to` (and,
// under StaticStorage, at the storage node). Only ActiveReplication
// accumulates replicas that change later costs.
func (c *Catalog) Commit(jobName, dataset string, from, to resource.NodeID) {
	ds := DatasetID{Job: jobName, Dataset: dataset}
	m := c.replica[ds]
	if m == nil {
		m = make(map[resource.NodeID]bool)
		c.replica[ds] = m
	}
	m[from] = true
	m[to] = true
	if c.policy == StaticStorage {
		m[c.storage] = true
	}
}

// Clone returns a deep copy of the catalog, for what-if scheduling passes
// that must not leak replica state.
func (c *Catalog) Clone() *Catalog {
	cp := NewCatalog(c.policy, c.storage)
	for ds, nodes := range c.replica {
		m := make(map[resource.NodeID]bool, len(nodes))
		for id, v := range nodes {
			m[id] = v
		}
		cp.replica[ds] = m
	}
	return cp
}

// Replicas returns the nodes currently holding the dataset, or nil.
func (c *Catalog) Replicas(ds DatasetID) []resource.NodeID {
	m := c.replica[ds]
	if len(m) == 0 {
		return nil
	}
	out := make([]resource.NodeID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	// Deterministic order for callers that print.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Forget drops all replica records of one job (job finished or reallocated).
func (c *Catalog) Forget(jobName string) {
	for ds := range c.replica {
		if ds.Job == jobName {
			delete(c.replica, ds)
		}
	}
}
