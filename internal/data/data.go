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
// What a transfer costs is stated once, in Model.TransferTime: a function of
// the policy, the storage node, the two ends and whether a replica is
// already at the consumer's end. Who knows that last fact differs. The
// critical-works build keeps its replica sets per producing task in its own
// arena and asks the Model directly; the Catalog keeps them in a map keyed
// by job and dataset name, for callers that have no such arena (the
// list-scheduling baselines, the benchmark's audit, tests). Either way cost
// is stateful under ActiveReplication, exactly the "active data replication
// policy" effect that lowers S1's collision pressure on fast nodes (Fig. 3b).
package data

import (
	"fmt"
	"math/bits"

	"repro/internal/resource"
	"repro/internal/simtime"
)

// Policy selects a data storage/replication model.
type Policy int

// The three policies of §4's strategy table. RemoteAccess is the zero value:
// a caller that names no policy gets no replication and no storage node.
const (
	RemoteAccess Policy = iota
	ActiveReplication
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

// DatasetID identifies a data product within a job. Schedulers name a
// product after the task that produces it (the critical-works build by that
// task's ID, in its own rows), so all transfers fanning out of one task share
// a dataset: once P1's output is replicated to a node, both
// D1- and D2-style consumers there read it for free under active
// replication (the data-grid file-replica model of OptorSim/ChicSim that
// the paper compares against).
type DatasetID struct {
	Job     string
	Dataset string
}

// Model is a data policy together with the node StaticStorage keeps every
// data product on (meaningless under the other two): everything about a
// policy that does not change while jobs are planned. The zero Model is
// remote access.
type Model struct {
	Policy  Policy
	Storage resource.NodeID
}

// TransferTime returns the planned time for moving a dataset from the
// producer's node to the consumer's, given the base (remote-access) transfer
// time. held reports whether a replica of the dataset is already at `to`;
// only ActiveReplication reads it.
//
// Co-locating producer and consumer does NOT waive the transfer: in the
// paper's model data transfers are explicit pipeline stages that take
// wall time wherever they run (Fig. 2(b)'s Distribution 1 shows D1
// between P1/1 and P2/1 — both on node 1 — still occupying a tick). Only
// an already-present replica (active replication) or residence on the
// static-storage node removes a leg.
func (m Model) TransferTime(base simtime.Time, from, to resource.NodeID, held bool) simtime.Time {
	switch m.Policy {
	case ActiveReplication:
		if held {
			return 0 // a replica is already there
		}
		// Proactive replication overlaps part of the copy with upstream
		// execution: the consumer observes about 3/4 of the nominal time.
		return (3*base + 3) / 4
	case StaticStorage:
		// producer -> storage -> consumer, half the nominal time per leg
		// (the storage node is well provisioned); co-location with the
		// storage node removes the respective leg. A full cross-node
		// transfer therefore costs about the remote-access baseline, and
		// the S3 penalty comes from coarse-grain serialization rather
		// than from transfer inflation.
		var t simtime.Time
		if from != m.Storage {
			t += (base + 1) / 2
		}
		if to != m.Storage {
			t += (base + 1) / 2
		}
		return t
	default:
		return base
	}
}

// MinTransferTime is a lower bound on TransferTime over every (from, to)
// node pair while no node holds a replica of the dataset: what moving it
// costs at the very least, wherever producer and consumer end up.
// Admissibility tests use it to bound a chain's finish before any node is
// chosen.
func (m Model) MinTransferTime(base simtime.Time) simtime.Time {
	switch m.Policy {
	case ActiveReplication:
		return (3*base + 3) / 4
	case StaticStorage:
		return 0 // both ends on the storage node
	default:
		return base
	}
}

// Catalog tracks replica placement for datasets under one Model, by job and
// dataset name. The zero value is not usable; call NewCatalog.
type Catalog struct {
	model   Model
	replica map[DatasetID]nodeSet
}

// nodeSet is a set of node IDs as a bitset. Nodes 0–63 sit in a word inside
// the value, so a dataset on an environment of up to 64 nodes costs its map
// entry and nothing else; higher IDs go to a slice that grows to the highest
// member. Members never leave and the slice is never longer than that, so
// equal sets have equal representations.
type nodeSet struct {
	lo uint64
	hi []uint64 // hi[w] holds nodes 64(w+1) … 64(w+1)+63
}

func (s *nodeSet) add(id resource.NodeID) {
	if id < 0 {
		panic(fmt.Sprintf("data: negative node ID %d", id))
	}
	if id < 64 {
		s.lo |= 1 << id
		return
	}
	w := int(id)/64 - 1
	if w >= len(s.hi) {
		s.hi = append(s.hi, make([]uint64, w+1-len(s.hi))...)
	}
	s.hi[w] |= 1 << (id % 64)
}

func (s nodeSet) has(id resource.NodeID) bool {
	if id < 0 {
		return false
	}
	if id < 64 {
		return s.lo>>id&1 != 0
	}
	w := int(id)/64 - 1
	return w < len(s.hi) && s.hi[w]>>(id%64)&1 != 0
}

func (s nodeSet) empty() bool { return s.lo == 0 && len(s.hi) == 0 }

// NewCatalog creates a catalog. storageNode is only meaningful for
// StaticStorage and names the node holding all data products.
func NewCatalog(p Policy, storageNode resource.NodeID) *Catalog {
	return &Catalog{
		model:   Model{Policy: p, Storage: storageNode},
		replica: make(map[DatasetID]nodeSet),
	}
}

// TransferTime is Model.TransferTime for dataset (of job jobName), with the
// catalog's own record of whether a replica is at `to`. It does not mutate
// replica state; call Commit when the placement is adopted.
func (c *Catalog) TransferTime(jobName, dataset string, base simtime.Time, from, to resource.NodeID) simtime.Time {
	held := c.model.Policy == ActiveReplication && c.replica[DatasetID{Job: jobName, Dataset: dataset}].has(to)
	return c.model.TransferTime(base, from, to, held)
}

// Commit records that the dataset has been materialized at node `to` (and,
// under StaticStorage, at the storage node). Only ActiveReplication
// accumulates replicas that change later costs.
func (c *Catalog) Commit(jobName, dataset string, from, to resource.NodeID) {
	ds := DatasetID{Job: jobName, Dataset: dataset}
	s := c.replica[ds]
	s.add(from)
	s.add(to)
	if c.model.Policy == StaticStorage {
		s.add(c.model.Storage)
	}
	c.replica[ds] = s
}

// Replicas returns the nodes currently holding the dataset, in ascending
// order, or nil.
func (c *Catalog) Replicas(ds DatasetID) []resource.NodeID {
	s := c.replica[ds]
	if s.empty() {
		return nil
	}
	n := bits.OnesCount64(s.lo)
	for _, word := range s.hi {
		n += bits.OnesCount64(word)
	}
	out := appendMembers(make([]resource.NodeID, 0, n), 0, s.lo)
	for w, word := range s.hi {
		out = appendMembers(out, 64*(w+1), word)
	}
	return out
}

// appendMembers appends the node IDs base+i for every set bit i of word.
func appendMembers(dst []resource.NodeID, base int, word uint64) []resource.NodeID {
	for ; word != 0; word &= word - 1 {
		dst = append(dst, resource.NodeID(base+bits.TrailingZeros64(word)))
	}
	return dst
}
