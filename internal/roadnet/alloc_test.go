//go:build !race

// The race detector instruments allocations and makes sync.Pool drop
// items at random, so these guards only hold in a normal build.

package roadnet

import (
	"math/rand"
	"testing"

	"mrvd/internal/geo"
)

// TestCostsWarmAllocs guards the pooled Costs scratch: once every source
// of a batch is a cache hit, a Costs call allocates only its result
// matrix (the row headers and one cell slab), whatever the graph or
// batch size.
func TestCostsWarmAllocs(t *testing.T) {
	for _, tc := range []struct{ grid, batch int }{{8, 5}, {16, 40}, {32, 120}} {
		g := GenerateGridNetwork(GridNetworkConfig{Rows: tc.grid, Cols: tc.grid, Seed: 3})
		rng := rand.New(rand.NewSource(int64(tc.batch)))
		sources := randomPoints(tc.batch, geo.NYCBBox, rng)
		targets := randomPoints(tc.batch, geo.NYCBBox, rng)
		c := NewGraphCoster(g)
		c.Costs(sources, targets) // caches a tree per source covering targets
		partials := c.Stats().PartialTrees
		allocs := testing.AllocsPerRun(50, func() { c.Costs(sources, targets) })
		if got := c.Stats().PartialTrees; got != partials {
			t.Fatalf("grid %d batch %d: %d Dijkstra runs after warm-up, want all cache hits", tc.grid, tc.batch, got-partials)
		}
		if allocs > 2 {
			t.Errorf("grid %d batch %d: warm Costs made %v allocations, want 2 (the result matrix)", tc.grid, tc.batch, allocs)
		}
	}
}

// TestDijkstraAllocs guards the pooled heap: a truncated dijkstraFrom
// allocates only the dist slice it returns, and ShortestPath a constant
// independent of graph size.
func TestDijkstraAllocs(t *testing.T) {
	for _, size := range []int{8, 32} {
		g := GenerateGridNetwork(GridNetworkConfig{Rows: size, Cols: size, Seed: 5})
		needed := make([]bool, g.NumNodes())
		needed[g.NumNodes()-1] = true
		needed[g.NumNodes()/2] = true
		dst := NodeID(g.NumNodes() - 1)
		g.dijkstraFrom(0, needed, 2) // warm the heap pool
		if a := testing.AllocsPerRun(50, func() { g.dijkstraFrom(0, needed, 2) }); a != 1 {
			t.Errorf("grid %d: truncated dijkstraFrom made %v allocations, want 1 (dist)", size, a)
		}
		if a := testing.AllocsPerRun(50, func() { g.ShortestPath(0, dst) }); a != 1 {
			t.Errorf("grid %d: ShortestPath made %v allocations, want 1", size, a)
		}
	}
}
