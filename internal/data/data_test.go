package data

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/resource"
	"repro/internal/simtime"
)

func TestSameNodeStillPays(t *testing.T) {
	// Transfers are explicit pipeline stages (see Fig. 2(b)): co-location
	// does not waive them.
	tests := []struct {
		p    Policy
		want simtime.Time
	}{
		{ActiveReplication, 6}, // ceil(3*8/4)
		{RemoteAccess, 8},
		{StaticStorage, 8}, // two half-legs through storage node 9
	}
	for _, tt := range tests {
		c := NewCatalog(tt.p, 9)
		if got := c.TransferTime("j", "P1", 8, 3, 3); got != tt.want {
			t.Errorf("%v: same-node transfer = %d, want %d", tt.p, got, tt.want)
		}
	}
}

func TestRemoteAccessAlwaysFullCost(t *testing.T) {
	c := NewCatalog(RemoteAccess, 0)
	if got := c.TransferTime("j", "P1", 6, 0, 1); got != 6 {
		t.Errorf("first transfer = %d, want 6", got)
	}
	c.Commit("j", "P1", 0, 1)
	if got := c.TransferTime("j", "P1", 6, 0, 1); got != 6 {
		t.Errorf("repeat transfer = %d, want 6 (no caching)", got)
	}
}

func TestActiveReplicationHalvesAndCaches(t *testing.T) {
	c := NewCatalog(ActiveReplication, 0)
	if got := c.TransferTime("j", "P1", 7, 0, 1); got != 6 { // ceil(3*7/4)
		t.Errorf("first transfer = %d, want 6", got)
	}
	c.Commit("j", "P1", 0, 1)
	if got := c.TransferTime("j", "P1", 7, 0, 1); got != 0 {
		t.Errorf("replicated transfer = %d, want 0", got)
	}
	// A different destination still pays.
	if got := c.TransferTime("j", "P1", 7, 0, 2); got != 6 {
		t.Errorf("new destination = %d, want 6", got)
	}
	// A different job's same-named dataset is a different dataset.
	if got := c.TransferTime("k", "P1", 7, 0, 1); got != 6 {
		t.Errorf("other job = %d, want 6", got)
	}
	// A different dataset of the same job still pays.
	if got := c.TransferTime("j", "P2", 7, 0, 1); got != 6 {
		t.Errorf("other dataset = %d, want 6", got)
	}
}

func TestFanOutSharesDataset(t *testing.T) {
	// Two consumers of P1's output on the same node: the second read is
	// free once the first transfer committed (the paper's replication win).
	c := NewCatalog(ActiveReplication, 0)
	if got := c.TransferTime("j", "P1", 10, 0, 3); got != 8 {
		t.Fatalf("first consumer pays %d, want 8", got)
	}
	c.Commit("j", "P1", 0, 3)
	if got := c.TransferTime("j", "P1", 10, 0, 3); got != 0 {
		t.Errorf("second consumer pays %d, want 0", got)
	}
}

func TestStaticStorageLegs(t *testing.T) {
	const storage = resource.NodeID(5)
	c := NewCatalog(StaticStorage, storage)
	tests := []struct {
		from, to resource.NodeID
		want     simtime.Time
	}{
		{0, 1, 4},       // two half-legs: 2 + 2
		{storage, 1, 2}, // producer on storage
		{0, storage, 2}, // consumer on storage
		{2, 2, 4},       // same node still stages through storage
		{storage, storage, 0},
	}
	for _, tt := range tests {
		if got := c.TransferTime("j", "P1", 3, tt.from, tt.to); got != tt.want {
			t.Errorf("TransferTime(%d→%d) = %d, want %d", tt.from, tt.to, got, tt.want)
		}
	}
}

func TestCommitRegistersReplicas(t *testing.T) {
	c := NewCatalog(StaticStorage, 5)
	c.Commit("j", "P1", 0, 1)
	got := c.Replicas(DatasetID{Job: "j", Dataset: "P1"})
	want := []resource.NodeID{0, 1, 5} // includes the storage node
	if len(got) != len(want) {
		t.Fatalf("Replicas = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Replicas = %v, want %v", got, want)
		}
	}
}

func TestPolicyString(t *testing.T) {
	if ActiveReplication.String() != "active-replication" ||
		RemoteAccess.String() != "remote-access" ||
		StaticStorage.String() != "static-storage" {
		t.Error("policy names changed")
	}
}

func TestQuickPolicyOrdering(t *testing.T) {
	// For any base time and distinct uncached nodes (none being storage):
	// replication ≤ remote, static ≈ remote (two half-legs), all
	// non-negative.
	f := func(base uint16) bool {
		b := simtime.Time(base % 1000)
		ar := NewCatalog(ActiveReplication, 99).TransferTime("j", "D", b, 0, 1)
		ra := NewCatalog(RemoteAccess, 99).TransferTime("j", "D", b, 0, 1)
		ss := NewCatalog(StaticStorage, 99).TransferTime("j", "D", b, 0, 1)
		return ar >= 0 && ar <= ra && ss <= ra+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickReplicationIdempotent(t *testing.T) {
	// After Commit, transfers to the committed destination are free,
	// regardless of how many times Commit runs and where data comes from.
	f := func(base uint16, reps uint8) bool {
		b := simtime.Time(base%100) + 1
		c := NewCatalog(ActiveReplication, 0)
		for i := 0; i < int(reps%5)+1; i++ {
			c.Commit("j", "D", 0, 1)
		}
		return c.TransferTime("j", "D", b, 0, 1) == 0 && c.TransferTime("j", "D", b, 2, 1) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestMinTransferTimeBoundsEveryPair: Model.MinTransferTime is a lower bound
// on TransferTime over every (from, to) pair while no node holds a replica of
// the dataset, for each policy — in a fresh catalog and after replicas of
// other datasets were committed, which must not loosen it — and it is tight:
// some pair attains it.
func TestMinTransferTimeBoundsEveryPair(t *testing.T) {
	const nodes, storage = 5, 2
	for _, p := range []Policy{ActiveReplication, RemoteAccess, StaticStorage} {
		for _, base := range []simtime.Time{0, 1, 2, 3, 7, 8} {
			c := NewCatalog(p, storage)
			lo := Model{Policy: p, Storage: storage}.MinTransferTime(base)
			check := func(state string) {
				t.Helper()
				attained := false
				for from := resource.NodeID(0); from < nodes; from++ {
					for to := resource.NodeID(0); to < nodes; to++ {
						tt := c.TransferTime("j", "D", base, from, to)
						if tt < lo {
							t.Errorf("%v, base %d, %s: TransferTime(%d→%d) = %d below the minimum %d", p, base, state, from, to, tt, lo)
						}
						attained = attained || tt == lo
					}
				}
				if !attained {
					t.Errorf("%v, base %d, %s: no node pair attains the minimum %d", p, base, state, lo)
				}
			}
			check("fresh")
			c.Commit("j", "other", 0, 1)
			c.Commit("k", "D", 0, 1)
			check("other datasets committed")
		}
	}
}

// TestCatalogAnswersThroughTheModel: the catalog adds to Model.TransferTime
// exactly one fact — whether a replica is at the consumer's end — so every
// answer it gives is the model's for held or not held, and only active
// replication tells the two apart.
func TestCatalogAnswersThroughTheModel(t *testing.T) {
	const nodes, storage = 4, 1
	for _, p := range []Policy{ActiveReplication, RemoteAccess, StaticStorage} {
		m := Model{Policy: p, Storage: storage}
		c := NewCatalog(p, storage)
		c.Commit("j", "D", 0, 2)
		for _, base := range []simtime.Time{0, 1, 5, 8} {
			for from := resource.NodeID(0); from < nodes; from++ {
				for to := resource.NodeID(0); to < nodes; to++ {
					held := to == 0 || to == 2
					if got, want := c.TransferTime("j", "D", base, from, to), m.TransferTime(base, from, to, held); got != want {
						t.Errorf("%v: TransferTime(base %d, %d→%d) = %d, the model says %d", p, base, from, to, got, want)
					}
					if p != ActiveReplication && m.TransferTime(base, from, to, true) != m.TransferTime(base, from, to, false) {
						t.Errorf("%v reads the replica flag", p)
					}
				}
			}
		}
	}
	if (Model{}).Policy != RemoteAccess {
		t.Error("the zero Model is not remote access")
	}
}

// TestReplicaSetsAcrossWords: replica sets are bitsets with the first 64
// nodes inline and the rest in grown words. Membership, Replicas' ascending
// order and the policies' answers must not depend on which word a node
// falls in, and equal sets built in different orders are equal values.
func TestReplicaSetsAcrossWords(t *testing.T) {
	ds := DatasetID{Job: "j", Dataset: "D"}
	ids := []resource.NodeID{0, 63, 64, 127, 128, 200, 1000}
	c := NewCatalog(ActiveReplication, 0)
	for i := len(ids) - 1; i > 0; i -= 2 {
		c.Commit("j", "D", ids[i], ids[i-1])
	}
	c.Commit("j", "D", ids[0], ids[0])
	if got := c.Replicas(ds); !reflect.DeepEqual(got, ids) {
		t.Fatalf("Replicas = %v, want %v", got, ids)
	}
	for _, id := range ids {
		if c.TransferTime("j", "D", 8, 5, id) != 0 {
			t.Errorf("node %d holds a replica but still pays", id)
		}
	}
	for _, id := range []resource.NodeID{1, 62, 65, 126, 129, 199, 201, 999, 1001, 5000} {
		if c.TransferTime("j", "D", 8, 5, id) != 6 {
			t.Errorf("node %d holds no replica but reads for free", id)
		}
	}

	fwd := NewCatalog(ActiveReplication, 0)
	for _, id := range ids {
		fwd.Commit("j", "D", id, id)
	}
	if !reflect.DeepEqual(fwd, c) {
		t.Error("the same replica set built in another order is a different value")
	}
}

// TestTransferTimeIsTheSumOfItsLegs: the producer's leg and the consumer's
// add up to the whole transfer as each policy prices it — remote access
// base, active replication nothing where a replica is held and ceil(3b/4)
// elsewhere, static storage ceil(b/2) per end off the storage node — for
// every policy, both ends on and off the storage node, held both ways and
// odd and even base times (static storage's odd-base rounding is where a
// split could drift).
func TestTransferTimeIsTheSumOfItsLegs(t *testing.T) {
	const storage = 2
	whole := func(p Policy, base simtime.Time, from, to resource.NodeID, held bool) simtime.Time {
		switch p {
		case ActiveReplication:
			if held {
				return 0
			}
			return (3*base + 3) / 4
		case StaticStorage:
			var t simtime.Time
			for _, end := range []resource.NodeID{from, to} {
				if end != storage {
					t += (base + 1) / 2
				}
			}
			return t
		default:
			return base
		}
	}
	ends := []resource.NodeID{0, storage, 3}
	for _, p := range []Policy{ActiveReplication, RemoteAccess, StaticStorage} {
		m := Model{Policy: p, Storage: storage}
		for _, base := range []simtime.Time{0, 1, 2, 3, 4, 7, 8, 101} {
			for _, from := range ends {
				for _, to := range ends {
					for _, held := range []bool{false, true} {
						send, recv := m.SendTime(base, from), m.ReceiveTime(base, to, held)
						want := whole(p, base, from, to, held)
						if send+recv != want {
							t.Errorf("%v, base %d, %d→%d, held %v: legs %d + %d, the policy prices %d", p, base, from, to, held, send, recv, want)
						}
						if got := m.TransferTime(base, from, to, held); got != want {
							t.Errorf("%v, base %d, %d→%d, held %v: TransferTime = %d, the policy prices %d", p, base, from, to, held, got, want)
						}
						if send < 0 || recv < 0 {
							t.Errorf("%v, base %d, %d→%d, held %v: a negative leg (%d, %d)", p, base, from, to, held, send, recv)
						}
					}
				}
			}
		}
	}
}
