package serve

import (
	"fmt"
	"testing"

	"trusthmd/pkg/cluster/ring"
)

// buildRing is the fleet's device-routing ring over the given shard names.
func buildRing(names []string) *ring.Ring { return ring.New(names, ring.DefaultVNodes) }

func TestRingDeterministicAndOrderless(t *testing.T) {
	a := buildRing([]string{"alpha", "beta", "gamma"})
	b := buildRing([]string{"gamma", "alpha", "beta"})
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("device-%d", i)
		if a.Lookup(key) != b.Lookup(key) {
			t.Fatalf("ring depends on construction order for %q", key)
		}
		if a.Lookup(key) != a.Lookup(key) {
			t.Fatalf("lookup not deterministic for %q", key)
		}
	}
	if buildRing(nil) != nil {
		t.Fatal("empty ring should be nil")
	}
	var nilRing *ring.Ring
	if nilRing.Lookup("x") != "" {
		t.Fatal("nil ring lookup should return empty")
	}
}

func TestRingSpreadsDevices(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	r := buildRing(names)
	counts := map[string]int{}
	const n = 4000
	for i := 0; i < n; i++ {
		counts[r.Lookup(fmt.Sprintf("device-%d", i))]++
	}
	for _, name := range names {
		share := float64(counts[name]) / n
		// With 128 virtual nodes per shard the split stays near 1/4; a
		// shard starved below 10% or hogging above 50% means the ring is
		// broken, not merely unlucky.
		if share < 0.10 || share > 0.50 {
			t.Fatalf("shard %s serves %.1f%% of devices: %v", name, 100*share, counts)
		}
	}
}

// TestRingMinimalRemapping is consistent hashing's defining property: when
// a shard leaves, only its devices remap — everyone else keeps their
// shard (and therefore their warm caches).
func TestRingMinimalRemapping(t *testing.T) {
	before := buildRing([]string{"a", "b", "c", "d"})
	after := buildRing([]string{"a", "b", "c"}) // "d" unloaded
	const n = 4000
	moved := 0
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("device-%d", i)
		was, is := before.Lookup(key), after.Lookup(key)
		if was == "d" {
			if is == "d" {
				t.Fatalf("device %q still routes to the removed shard", key)
			}
			continue // had to move
		}
		if was != is {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d devices moved between surviving shards (consistent hashing should move none)", moved)
	}
}
