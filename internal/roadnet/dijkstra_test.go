package roadnet

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"

	"mrvd/internal/geo"
)

// refQueue is the container/heap reference the typed priorityQueue must
// reproduce pop for pop.
type refQueue []pqItem

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *refQueue) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// TestPriorityQueueMatchesContainerHeap drives the typed heap and the
// container/heap reference through identical random push/pop sequences
// dominated by equal distances: the pop sequences — which node wins
// each tie included — must be identical, or Dijkstra's settle order
// (and with it truncated trees and the settled counts) could drift.
func TestPriorityQueueMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var typed priorityQueue
		var ref refQueue
		levels := 1 + rng.Intn(6) // few distinct distances: ties everywhere
		pops := 0
		check := func() {
			got, want := typed.pop(), heap.Pop(&ref).(pqItem)
			if got != want {
				t.Fatalf("seed %d pop %d: typed %+v, container/heap %+v", seed, pops, got, want)
			}
			pops++
		}
		for op := 0; op < 3000; op++ {
			if len(ref) == 0 || rng.Float64() < 0.55 {
				d := float64(rng.Intn(levels))
				if rng.Intn(4) == 0 {
					d += rng.Float64()
				}
				it := pqItem{node: NodeID(op), dist: d}
				typed.push(it)
				heap.Push(&ref, it)
			} else {
				check()
			}
			if len(typed) != len(ref) {
				t.Fatalf("seed %d op %d: typed len %d, reference len %d", seed, op, len(typed), len(ref))
			}
		}
		for len(ref) > 0 {
			check()
		}
	}
}

// FuzzTruncatedDijkstra checks the truncation contract GraphCoster.Costs
// builds on, over small random graphs with many tied and zero-cost arcs:
// a truncated run agrees bitwise with the full tree on every target and
// on every entry at or below its reported horizon, and never settles
// more nodes than are reachable.
//
// Input layout: node count, source, one mask byte per node (low bit set
// = target), then (from, to, cost) arc triples; missing bytes read as 0.
func FuzzTruncatedDijkstra(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 0, 1, 0, 1, 5, 1, 2, 5, 0, 2, 20})
	f.Add([]byte{5, 2, 1, 1, 0, 1, 0, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0})
	f.Add([]byte{4, 0, 0, 0, 0, 1}) // arc-free: only the source is reachable
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 16; i++ {
		b := make([]byte, 8+rng.Intn(120))
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		n := 1 + int(next())%24
		src := NodeID(int(next()) % n)
		needed := make([]bool, n)
		targets := 0
		for i := range needed {
			if next()&1 == 1 {
				needed[i] = true
				targets++
			}
		}
		b := NewBuilder()
		for i := 0; i < n; i++ {
			b.AddNode(geo.Point{Lng: float64(i), Lat: 0})
		}
		for len(data) >= 3 {
			from, to, cost := NodeID(int(next())%n), NodeID(int(next())%n), float64(next()%8)*0.3
			b.AddArc(from, to, cost)
		}
		g := b.Build()

		full, fullSettled, fullHorizon := g.dijkstraFrom(src, nil, 0)
		reachable := 0
		for _, d := range full {
			if !math.IsInf(d, 1) {
				reachable++
			}
		}
		if !math.IsInf(fullHorizon, 1) || fullSettled != reachable {
			t.Fatalf("full tree: horizon %v settled %d, want +Inf and %d reachable", fullHorizon, fullSettled, reachable)
		}
		dist, settled, horizon := g.dijkstraFrom(src, needed, targets)
		if settled > reachable {
			t.Fatalf("truncated run settled %d > %d reachable nodes", settled, reachable)
		}
		for v := range dist {
			if (needed[v] || dist[v] <= horizon) && dist[v] != full[v] {
				t.Fatalf("node %d (target %v): truncated %v, full %v, horizon %v", v, needed[v], dist[v], full[v], horizon)
			}
		}
	})
}
