package federation

import (
	"fmt"
	"testing"
)

func TestRingErrors(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Error("empty ring accepted")
	}
	if _, err := NewRing([]string{"a", "a"}); err == nil {
		t.Error("duplicate shard accepted")
	}
	if _, err := NewRing([]string{"a", ""}); err == nil {
		t.Error("empty shard name accepted")
	}
}

func TestRingWalkCoversEveryShardOnce(t *testing.T) {
	shards := []string{"s0", "s1", "s2", "s3"}
	r, err := NewRing(shards)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("job-%d", i)
		walk := r.Walk(key)
		if len(walk) != len(shards) {
			t.Fatalf("walk(%s) = %v", key, walk)
		}
		seen := map[string]bool{}
		for _, s := range walk {
			if seen[s] {
				t.Fatalf("walk(%s) repeats %s: %v", key, s, walk)
			}
			seen[s] = true
		}
	}
}

func TestRingDeterministicAcrossConstruction(t *testing.T) {
	a, _ := NewRing([]string{"s2", "s0", "s1"})
	b, _ := NewRing([]string{"s0", "s1", "s2"}) // order must not matter
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("job-%d", i)
		wa, wb := a.Walk(key), b.Walk(key)
		for j := range wa {
			if wa[j] != wb[j] {
				t.Fatalf("walk(%s) differs: %v vs %v", key, wa, wb)
			}
		}
	}
}

// TestRingStabilityUnderShardLoss pins the consistent-hashing property the
// recovery ladder relies on: removing one shard must not move any key
// whose owner survives.
func TestRingStabilityUnderShardLoss(t *testing.T) {
	full, _ := NewRing([]string{"s0", "s1", "s2"})
	reduced, _ := NewRing([]string{"s0", "s1"})
	moved := 0
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("job-%d", i)
		was := full.Walk(key)[0]
		now := reduced.Walk(key)[0]
		if was != "s2" && was != now {
			t.Fatalf("key %s moved %s→%s though its owner survived", key, was, now)
		}
		if was == "s2" {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no keys ever owned by s2; distribution is broken")
	}
	// Equivalently: the survivor a dead shard's key falls to is the next
	// shard on the full ring's walk — exactly what dispatch does.
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("job-%d", i)
		walk := full.Walk(key)
		if walk[0] != "s2" {
			continue
		}
		if reduced.Walk(key)[0] != walk[1] {
			t.Fatalf("key %s: reduced owner %s, full walk fallback %s", key, reduced.Walk(key)[0], walk[1])
		}
	}
}

func TestRingSpreadsLoad(t *testing.T) {
	shards := []string{"s0", "s1", "s2", "s3"}
	r, _ := NewRing(shards)
	counts := map[string]int{}
	const n = 4000
	for i := 0; i < n; i++ {
		counts[r.Walk(fmt.Sprintf("job-%d", i))[0]]++
	}
	for _, s := range shards {
		// Perfectly even would be n/4; insist each shard gets at least a
		// third of its fair share — a weak bound that catches gross skew
		// (e.g. all keys on one shard) without overfitting the hash.
		if counts[s] < n/12 {
			t.Fatalf("shard %s got %d of %d keys: %v", s, counts[s], n, counts)
		}
	}
}

func TestRingSingleShardOwnsEverything(t *testing.T) {
	r, _ := NewRing([]string{"only"})
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("job-%d", i)
		if r.Walk(key)[0] != "only" || len(r.Walk(key)) != 1 {
			t.Fatalf("single-shard ring misroutes %s", key)
		}
	}
}
