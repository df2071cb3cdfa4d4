package roadnet

import (
	"math"
	"sync"
)

// pqItem is one entry of the Dijkstra priority queue.
type pqItem struct {
	node NodeID
	dist float64
}

// priorityQueue is a binary min-heap on dist. push and pop sift exactly
// as container/heap's Push and Pop do — the same comparisons in the same
// order — so items leave in the same sequence, ties included; the
// typed form just never boxes an item into an interface.
type priorityQueue []pqItem

// push adds it to the heap (container/heap's up).
func (q *priorityQueue) push(it pqItem) {
	h := append(*q, it)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(it.dist < h[i].dist) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = it
	*q = h
}

// pop removes and returns the minimum item (container/heap's swap of
// root and last element followed by down over the shortened heap).
// The heap must be non-empty.
func (q *priorityQueue) pop() pqItem {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].dist < h[j].dist {
			j = j2
		}
		if !(h[j].dist < last.dist) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = last
	*q = h[:n]
	return top
}

// queuePool recycles heap backing arrays across searches, so a warm
// Dijkstra allocates only the slices it returns.
var queuePool = sync.Pool{New: func() any { return new(priorityQueue) }}

// getQueue returns a pooled heap holding only src at distance d.
func getQueue(src NodeID, d float64) *priorityQueue {
	q := queuePool.Get().(*priorityQueue)
	*q = append((*q)[:0], pqItem{node: src, dist: d})
	return q
}

// ShortestPath returns the minimum travel cost from src to dst in seconds
// and whether dst is reachable. It runs a lazy-deletion binary-heap
// Dijkstra with early exit at dst.
func (g *Graph) ShortestPath(src, dst NodeID) (float64, bool) {
	if src == dst {
		return 0, true
	}
	if src < 0 || dst < 0 || int(src) >= g.NumNodes() || int(dst) >= g.NumNodes() {
		return 0, false
	}
	dist := make([]float64, g.NumNodes())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	pq := getQueue(src, 0)
	defer queuePool.Put(pq)
	for len(*pq) > 0 {
		item := pq.pop()
		if item.dist > dist[item.node] {
			continue // stale entry
		}
		if item.node == dst {
			return item.dist, true
		}
		for _, e := range g.arcs(item.node) {
			nd := item.dist + e.cost
			if nd < dist[e.to] {
				dist[e.to] = nd
				pq.push(pqItem{node: e.to, dist: nd})
			}
		}
	}
	return 0, false
}

// ShortestPathTree computes distances from src to every node, returning
// +Inf for unreachable ones. Used to precompute region-to-region travel
// matrices.
func (g *Graph) ShortestPathTree(src NodeID) []float64 {
	dist, _, _ := g.dijkstraFrom(src, nil, 0)
	return dist
}

// dijkstraFrom is the shared Dijkstra core. With a nil needed mask it
// expands the full tree. With a mask it runs truncated: the scan stops
// as soon as the remaining marked nodes have all been settled, so dist
// entries are exact for every settled node (which includes every
// reachable marked node) and tentative or +Inf elsewhere. Truncation
// never changes settled values — the run is identical to a full tree up
// to the early exit — so batch queries answered from partial trees are
// bitwise-equal to full-tree answers.
//
// settled counts finalized nodes: the unit of shortest-path work
// GraphCoster.Stats reports. horizon is the exact-coverage bound of the
// returned slice: every entry with dist <= horizon equals its final
// shortest-path value (pops are non-decreasing, so nodes finalized
// before the early exit lie at or below the distance it fired at, and
// an unsettled node's tentative value can only tie the bound when it is
// already final). A run that drained the queue — full tree, or a
// truncated run whose targets exhausted the reachable graph — reports
// +Inf: every entry is final, including the +Inf of unreachable nodes.
func (g *Graph) dijkstraFrom(src NodeID, needed []bool, remaining int) (dist []float64, settled int, horizon float64) {
	horizon = math.Inf(1)
	dist = make([]float64, g.NumNodes())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	if src < 0 || int(src) >= g.NumNodes() {
		return dist, 0, horizon
	}
	dist[src] = 0
	pq := getQueue(src, 0)
	defer queuePool.Put(pq)
	for len(*pq) > 0 {
		item := pq.pop()
		if item.dist > dist[item.node] {
			continue // stale entry
		}
		settled++
		if needed != nil && needed[item.node] {
			remaining--
			if remaining <= 0 {
				horizon = item.dist
				break
			}
		}
		for _, e := range g.arcs(item.node) {
			nd := item.dist + e.cost
			if nd < dist[e.to] {
				dist[e.to] = nd
				pq.push(pqItem{node: e.to, dist: nd})
			}
		}
	}
	return dist, settled, horizon
}

// Route returns the node sequence of a shortest src->dst path, inclusive
// of both endpoints, and whether one exists.
func (g *Graph) Route(src, dst NodeID) ([]NodeID, bool) {
	if src < 0 || dst < 0 || int(src) >= g.NumNodes() || int(dst) >= g.NumNodes() {
		return nil, false
	}
	if src == dst {
		return []NodeID{src}, true
	}
	dist := make([]float64, g.NumNodes())
	prev := make([]NodeID, g.NumNodes())
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = InvalidNode
	}
	dist[src] = 0
	pq := getQueue(src, 0)
	defer queuePool.Put(pq)
	for len(*pq) > 0 {
		item := pq.pop()
		if item.dist > dist[item.node] {
			continue
		}
		if item.node == dst {
			break
		}
		for _, e := range g.arcs(item.node) {
			nd := item.dist + e.cost
			if nd < dist[e.to] {
				dist[e.to] = nd
				prev[e.to] = item.node
				pq.push(pqItem{node: e.to, dist: nd})
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return nil, false
	}
	var path []NodeID
	for v := dst; v != InvalidNode; v = prev[v] {
		path = append(path, v)
	}
	// Reverse in place.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, true
}
