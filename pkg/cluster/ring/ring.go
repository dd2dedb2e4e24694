// Package ring is the repository's one consistent-hash ring: FNV-1a
// hashing with a murmur fmix64 avalanche finisher over a sorted set of
// virtual nodes. It backs both routing levels of the system — device →
// shard inside one daemon (pkg/serve) and shard → node across a cluster
// (pkg/cluster) — so both inherit the same tested minimal-remap and
// spread properties.
//
// A Ring is immutable: membership changes rebuild it (construction is
// cheap — sort of members×vnodes points) and lookups on the snapshot are
// lock-free.
package ring

import (
	"sort"
	"strconv"
)

// DefaultVNodes is the default number of virtual nodes per member. More
// vnodes smooth the load split between members at the cost of a larger
// (still tiny) sorted ring.
const DefaultVNodes = 128

type point struct {
	hash   uint64
	member string
}

// Ring is an immutable consistent-hash ring over member names.
type Ring struct {
	points  []point
	members int
}

// New constructs the ring for the given members (order does not matter;
// duplicates collapse). vnodes <= 0 uses DefaultVNodes. Returns nil for an
// empty member set.
func New(members []string, vnodes int) *Ring {
	if len(members) == 0 {
		return nil
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := make(map[string]struct{}, len(members))
	points := make([]point, 0, len(members)*vnodes)
	for _, m := range members {
		if _, dup := seen[m]; dup {
			continue
		}
		seen[m] = struct{}{}
		for i := 0; i < vnodes; i++ {
			points = append(points, point{
				hash:   Hash(m + "#" + strconv.Itoa(i)),
				member: m,
			})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		// Equal hashes (astronomically rare): break the tie by member so
		// the ring is deterministic regardless of input order.
		return points[i].member < points[j].member
	})
	return &Ring{points: points, members: len(seen)}
}

// Lookup maps a key to its member: the first virtual node at or clockwise
// after the key's hash, wrapping around the ring. A nil ring answers "".
func (r *Ring) Lookup(key string) string {
	if r == nil || len(r.points) == 0 {
		return ""
	}
	return r.points[r.at(key)].member
}

// Successors returns up to n distinct members in clockwise order starting
// at the key's owner — the owner first, then the members a consistent-hash
// failover would promote next. A nil ring answers nil.
func (r *Ring) Successors(key string, n int) []string {
	if r == nil || len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > r.members {
		n = r.members
	}
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for i, start := 0, r.at(key); len(out) < n && i < len(r.points); i++ {
		m := r.points[(start+i)%len(r.points)].member
		if _, dup := seen[m]; dup {
			continue
		}
		seen[m] = struct{}{}
		out = append(out, m)
	}
	return out
}

// Members reports the number of distinct members on the ring.
func (r *Ring) Members() int {
	if r == nil {
		return 0
	}
	return r.members
}

// at finds the index of the key's owning virtual node.
func (r *Ring) at(key string) int {
	h := Hash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Hash is FNV-1a over the key's bytes, finished with a 64-bit avalanche
// mix. The mix matters: raw FNV-1a perturbs the hash by only ~2^46 when
// just the tail bytes differ, so "shard#0".."shard#127" (and "device-1"
// vs "device-2") would cluster into one arc of the ring instead of
// spreading — exactly the keys a consistent-hash ring is fed.
func Hash(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	// Murmur3's fmix64 finalizer: full avalanche, so every input byte
	// flips every output bit with probability ~1/2.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
