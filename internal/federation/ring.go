package federation

import (
	"fmt"
	"sort"
)

// Ring is a consistent-hash ring partitioning the job flow across shards.
// Each shard gets ringReplicas virtual points (FNV-1a of "name#i"); a job ID
// hashes to a point and walks clockwise. The walk order is the job's
// preference list: the first live shard on it owns the job, so a shard
// death moves only that shard's keys (spread across survivors), and its
// recovery moves them back — no global reshuffle.
type Ring struct {
	points []ringPoint // sorted by hash
	shards []string    // sorted names
}

type ringPoint struct {
	hash  uint64
	shard string
}

// ringReplicas is the virtual-point count per shard; 64 keeps the load
// split within a few percent for small fleets while staying cheap to walk.
const ringReplicas = 64

// NewRing builds a ring over the named shards. Shard names must be unique
// and non-empty.
func NewRing(shards []string) (*Ring, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("federation: ring needs at least one shard")
	}
	seen := make(map[string]struct{}, len(shards))
	r := &Ring{shards: append([]string(nil), shards...)}
	sort.Strings(r.shards)
	for _, s := range r.shards {
		if s == "" {
			return nil, fmt.Errorf("federation: empty shard name")
		}
		if _, dup := seen[s]; dup {
			return nil, fmt.Errorf("federation: duplicate shard name %q", s)
		}
		seen[s] = struct{}{}
		for i := 0; i < ringReplicas; i++ {
			r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("%s#%d", s, i)), shard: s})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Hash collisions between virtual points resolve by name so the
		// ring is a pure function of the shard set.
		return r.points[a].shard < r.points[b].shard
	})
	return r, nil
}

// Shards returns the shard names, sorted.
func (r *Ring) Shards() []string { return append([]string(nil), r.shards...) }

// Walk returns key's full preference list: every shard exactly once, in
// clockwise ring order starting at the key's point. Dispatch takes the
// first shard on the list that is alive and breaker-admitted, which is
// what keeps surviving shards admitting while a shard is down.
func (r *Ring) Walk(key string) []string {
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, len(r.shards))
	seen := make(map[string]struct{}, len(r.shards))
	for n := 0; n < len(r.points) && len(out) < len(r.shards); n++ {
		p := r.points[(i+n)%len(r.points)]
		if _, dup := seen[p.shard]; dup {
			continue
		}
		seen[p.shard] = struct{}{}
		out = append(out, p.shard)
	}
	return out
}

// fnv1a is the 64-bit FNV-1a hash.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// ringHash is fnv1a with a splitmix64 finalizer. Plain FNV-1a has weak
// avalanche in its low bits for short strings that differ only in a
// suffix ("s0#1", "s0#2", …), which skews the virtual-point spread badly;
// the finalizer restores a uniform ring.
func ringHash(s string) uint64 {
	h := fnv1a(s)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
