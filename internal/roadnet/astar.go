package roadnet

import (
	"math"

	"mrvd/internal/geo"
)

// AStar returns the minimum travel cost from src to dst in seconds using
// A* with a great-circle admissible heuristic: straight-line distance
// divided by the graph's maximum street speed can never overestimate the
// remaining travel time, so the result equals Dijkstra's. On city-scale
// grids it expands a fraction of the nodes plain Dijkstra visits.
func (g *Graph) AStar(src, dst NodeID) (float64, bool) {
	if src == dst {
		return 0, true
	}
	if src < 0 || dst < 0 || int(src) >= g.NumNodes() || int(dst) >= g.NumNodes() {
		return 0, false
	}
	maxSpeed := g.maxStreetSpeed()
	if maxSpeed <= 0 {
		return g.ShortestPath(src, dst)
	}
	target := g.Point(dst)
	h := func(v NodeID) float64 {
		return geo.Equirect(g.Point(v), target) / maxSpeed
	}

	dist := make([]float64, g.NumNodes())
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	pq := getQueue(src, h(src))
	defer queuePool.Put(pq)
	closed := make([]bool, g.NumNodes())
	for len(*pq) > 0 {
		item := pq.pop()
		v := item.node
		if closed[v] {
			continue
		}
		closed[v] = true
		if v == dst {
			return dist[v], true
		}
		for _, e := range g.arcs(v) {
			nd := dist[v] + e.cost
			if nd < dist[e.to] {
				dist[e.to] = nd
				pq.push(pqItem{node: e.to, dist: nd + h(e.to)})
			}
		}
	}
	return 0, false
}

// maxStreetSpeed returns the fastest observed street speed (m/s),
// memoized on first use; it is the admissibility constant of AStar.
func (g *Graph) maxStreetSpeed() float64 {
	if g.maxSpeed > 0 {
		return g.maxSpeed
	}
	best := 0.0
	for v := 0; v < g.NumNodes(); v++ {
		p := g.Point(NodeID(v))
		for _, e := range g.arcs(NodeID(v)) {
			if e.cost <= 0 {
				continue
			}
			if s := geo.Equirect(p, g.Point(e.to)) / e.cost; s > best {
				best = s
			}
		}
	}
	g.maxSpeed = best
	return best
}
