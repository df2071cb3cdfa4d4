package roadnet

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"mrvd/internal/geo"
)

// BatchCoster extends Coster with many-to-many pricing: one call prices
// every (source, target) pair and returns a dense cost matrix. The batch
// dispatcher's hot path is exactly this shape — each batch needs the
// pickup cost of every candidate driver to every waiting rider — and a
// batch-aware implementation can amortize work per-pair queries repeat
// (snapping, shortest-path trees, lock traffic).
//
// The contract is strict equivalence: Costs(S, T)[i][j] must equal
// Cost(S[i], T[j]) bitwise for every pair, so swapping the per-pair path
// for the batch path never changes dispatch results, only their cost.
type BatchCoster interface {
	Coster
	// Costs returns the len(sources) x len(targets) travel-time matrix
	// in seconds, +Inf for unreachable pairs. The returned rows are
	// freshly allocated and owned by the caller.
	Costs(sources, targets []geo.Point) [][]float64
}

// PerSourceAmortized is an optional BatchCoster capability: it reports
// whether one dense Costs call is worth more than pricing individual
// cells on demand. True means Costs amortizes per-source work across
// targets (a shortest-path tree per unique source) or per-call overhead
// across cells (one RPC to a routing service), so callers should hand
// it the full dense matrix — and the engine treats BatchCosters that
// don't implement the interface as true for the same reason. False
// opts out: a closed form is O(1) per cell with nothing to amortize,
// so pricing only the cells actually read is strictly cheaper.
type PerSourceAmortized interface {
	BatchCoster
	AmortizesPerSource() bool
}

// AmortizesPerSource implements PerSourceAmortized: graph costers pay
// one truncated Dijkstra per unique source, which every target shares.
func (c *GraphCoster) AmortizesPerSource() bool { return true }

// AmortizesPerSource implements PerSourceAmortized: the closed form has
// no per-source work to amortize, so batch callers do better pricing
// exactly the cells they read than filling a dense matrix.
func (c *GreatCircleCoster) AmortizesPerSource() bool { return false }

// AsBatchCoster returns c's native batch implementation when it has one,
// and otherwise adapts c with a per-pair loop, so callers can consume
// the batch API unconditionally while plain Costers keep working as
// compatibility shims.
func AsBatchCoster(c Coster) BatchCoster {
	if b, ok := c.(BatchCoster); ok {
		return b
	}
	return pairwiseBatch{c}
}

// pairwiseBatch is the fallback BatchCoster over a single-pair Coster.
type pairwiseBatch struct{ Coster }

func (p pairwiseBatch) Costs(sources, targets []geo.Point) [][]float64 {
	out := newCostMatrix(len(sources), len(targets))
	for i, s := range sources {
		for j, t := range targets {
			out[i][j] = p.Coster.Cost(s, t)
		}
	}
	return out
}

// newCostMatrix allocates a dense rows x cols matrix backed by one slab.
func newCostMatrix(rows, cols int) [][]float64 {
	out := make([][]float64, rows)
	cells := make([]float64, rows*cols)
	for i := range out {
		out[i] = cells[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return out
}

// Costs implements BatchCoster. The closed form is evaluated cell by
// cell through Cost itself, so the matrix is trivially bitwise-identical
// to per-pair queries; the win is one slab allocation and no interface
// dispatch in callers' inner loops.
func (c *GreatCircleCoster) Costs(sources, targets []geo.Point) [][]float64 {
	out := newCostMatrix(len(sources), len(targets))
	for i, s := range sources {
		row := out[i]
		for j, t := range targets {
			row[j] = c.Cost(s, t)
		}
	}
	return out
}

// costerCounters instruments a GraphCoster's query work.
type costerCounters struct {
	trees     atomic.Int64
	partials  atomic.Int64
	settled   atomic.Int64
	cacheHits atomic.Int64
	evictions atomic.Int64
}

// CosterStats snapshots a GraphCoster's cumulative query counters.
type CosterStats struct {
	// Trees counts full shortest-path trees computed by single-pair
	// Cost queries.
	Trees int64
	// PartialTrees counts Dijkstra runs issued by batched Costs
	// queries: truncated for first-seen sources, full when promoting a
	// hot source whose cached tree fell short.
	PartialTrees int64
	// SettledNodes totals nodes finalized across all Dijkstra runs —
	// the unit of shortest-path work the per-pair and batch query paths
	// share, and what BenchmarkBatchCosts compares. A full tree settles
	// every reachable node; a truncated batch run stops as soon as the
	// batch's target nodes are settled.
	SettledNodes int64
	// CacheHits counts queries answered from the tree cache.
	CacheHits int64
	// Evictions counts tree-cache entries displaced by the clock
	// (second-chance) sweep to make room for a new source's tree.
	Evictions int64
}

// Add accumulates o into s — how a sharded runtime's per-shard coster
// counters aggregate into one city-wide view.
func (s *CosterStats) Add(o CosterStats) {
	s.Trees += o.Trees
	s.PartialTrees += o.PartialTrees
	s.SettledNodes += o.SettledNodes
	s.CacheHits += o.CacheHits
	s.Evictions += o.Evictions
}

// Stats snapshots the coster's cumulative counters.
func (c *GraphCoster) Stats() CosterStats {
	return CosterStats{
		Trees:        c.stats.trees.Load(),
		PartialTrees: c.stats.partials.Load(),
		SettledNodes: c.stats.settled.Load(),
		CacheHits:    c.stats.cacheHits.Load(),
		Evictions:    c.stats.evictions.Load(),
	}
}

// ResetStats zeroes the counters (benchmark bookkeeping).
func (c *GraphCoster) ResetStats() {
	c.stats.trees.Store(0)
	c.stats.partials.Store(0)
	c.stats.settled.Store(0)
	c.stats.cacheHits.Store(0)
	c.stats.evictions.Store(0)
}

// Costs implements BatchCoster. Every endpoint is snapped exactly once,
// snapped source nodes are deduplicated, and one truncated Dijkstra runs
// per unique unserved source on a parallel worker pool. The query path
// acquires the coster's mutex twice — once to consult the tree cache up
// front, once to publish new trees — rather than once per pair, so
// workers never contend on a lock.
//
// Each truncated run settles the graph only until the batch's target
// nodes are finalized, which on clustered city workloads is a small
// fraction of the full tree a per-pair Cost query would expand (Stats
// reports both in SettledNodes). Truncation never changes settled
// values, so the matrix is bitwise-identical to per-pair queries.
//
// Trees are cached with their coverage horizon, so consecutive batches
// reuse them: a stationary driver's tree from the last batch serves
// this one as long as its targets stay inside the settled horizon. A
// cached tree that proves insufficient is recomputed as a full tree —
// the source is demonstrably hot, so one full expansion buys every
// future batch a guaranteed hit.
//
// The call's working set is reused across calls (see costsScratch), so
// a batch served entirely from cached trees allocates only the returned
// matrix.
func (c *GraphCoster) Costs(sources, targets []geo.Point) [][]float64 {
	nT := len(targets)
	out := newCostMatrix(len(sources), nT)
	if len(sources) == 0 || nT == 0 {
		return out
	}
	s := c.getScratch(len(sources), nT)
	defer c.putScratch(s)

	// Snap all endpoints once.
	srcNode, srcApproach := s.srcNode, s.srcApproach
	for i, p := range sources {
		srcNode[i], srcApproach[i] = c.snap.nearest(p)
	}
	tgtNode, tgtApproach := s.tgtNode, s.tgtApproach
	needed := s.needed
	for j, p := range targets {
		tgtNode[j], tgtApproach[j] = c.snap.nearest(p)
		if n := tgtNode[j]; n != InvalidNode && !needed[n] {
			needed[n] = true
			s.tgtUniq = append(s.tgtUniq, n)
		}
	}
	tgtUniq := s.tgtUniq
	uniqueTargets := len(tgtUniq)

	// Deduplicate source nodes in first-appearance order: co-located
	// drivers share one Dijkstra. rowOf holds 1 + the row in uniq, so
	// its zero value means "not seen".
	rowOf := s.rowOf
	for _, n := range srcNode {
		if n == InvalidNode {
			continue
		}
		if rowOf[n] == 0 {
			s.uniq = append(s.uniq, n)
			rowOf[n] = int32(len(s.uniq))
		}
	}
	uniq := s.uniq

	// covered reports whether a cached tree's horizon reaches every
	// unique target node of this batch: only then are its values final
	// for every cell the matrix will read. It runs under the coster's
	// mutex, hence the deduplicated scan.
	covered := func(tree []float64, horizon float64) bool {
		for _, n := range tgtUniq {
			if !(tree[n] <= horizon) {
				return false
			}
		}
		return true
	}

	// First lock acquisition: serve sources from cached trees — full
	// ones from single-pair queries, or earlier batches' partial trees
	// whose horizon covers this batch's targets.
	s.trees = resize(s.trees, len(uniq))
	s.horizons = resize(s.horizons, len(uniq))
	s.promote = resize(s.promote, len(uniq))
	trees, horizons, promote := s.trees, s.horizons, s.promote
	c.mu.Lock()
	for u, n := range uniq {
		if t, hz, ok := c.cache.get(n); ok && covered(t, hz) {
			trees[u] = t
		} else {
			s.missing = append(s.missing, u)
			// A cached-but-insufficient tree marks a hot source: spend
			// one full expansion now so every future batch hits.
			promote[u] = ok
		}
	}
	c.mu.Unlock()
	missing := s.missing
	c.stats.cacheHits.Add(int64(len(uniq) - len(missing)))

	// Dijkstras for the rest — truncated for first-seen sources, full
	// for promoted ones — fanned over a worker pool. The needed mask is
	// shared read-only; each worker owns its dist slice.
	if len(missing) > 0 {
		workers := runtime.GOMAXPROCS(0)
		if workers > len(missing) {
			workers = len(missing)
		}
		var next, settledTotal atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					k := int(next.Add(1)) - 1
					if k >= len(missing) {
						return
					}
					u := missing[k]
					var tree []float64
					var settled int
					var horizon float64
					if promote[u] {
						tree, settled, horizon = c.g.dijkstraFrom(uniq[u], nil, 0)
					} else {
						tree, settled, horizon = c.g.dijkstraFrom(uniq[u], needed, uniqueTargets)
					}
					trees[u] = tree
					horizons[u] = horizon
					settledTotal.Add(int64(settled))
				}
			}()
		}
		wg.Wait()
		c.stats.partials.Add(int64(len(missing)))
		c.stats.settled.Add(settledTotal.Load())

		// Second lock acquisition: publish the new trees so the next
		// batch (and single-pair queries within their horizon) reuse
		// them.
		c.mu.Lock()
		var evictions int64
		for _, u := range missing {
			if c.cache.put(uniq[u], trees[u], horizons[u], c.CacheSize) {
				evictions++
			}
		}
		c.mu.Unlock()
		if evictions > 0 {
			c.stats.evictions.Add(evictions)
		}
	}

	// Assemble the matrix, pricing approach legs exactly as Cost does.
	for i := range sources {
		row := out[i]
		if srcNode[i] == InvalidNode {
			for j := range row {
				row[j] = math.Inf(1)
			}
			continue
		}
		tree := trees[rowOf[srcNode[i]]-1]
		for j := 0; j < nT; j++ {
			if tgtNode[j] == InvalidNode {
				row[j] = math.Inf(1)
				continue
			}
			d := tree[tgtNode[j]]
			if math.IsInf(d, 1) {
				row[j] = d
				continue
			}
			if c.ApproachSpeedMPS > 0 {
				d += (srcApproach[i] + tgtApproach[j]) / c.ApproachSpeedMPS
			}
			row[j] = d
		}
	}
	return out
}

// costsScratch is the working set of one GraphCoster.Costs call. Each
// coster keeps a free list of them — one per concurrent caller at most —
// so a warm batch allocates only its result matrix.
//
// needed and rowOf are indexed by node; a call marks only the entries
// of its own targets and sources, and putScratch clears exactly those,
// so reuse costs O(batch), not O(graph).
type costsScratch struct {
	needed      []bool  // target-node mask handed to truncated Dijkstras
	rowOf       []int32 // source node -> 1 + its row in uniq; 0 = unseen
	srcNode     []NodeID
	srcApproach []float64
	tgtNode     []NodeID
	tgtApproach []float64
	tgtUniq     []NodeID // distinct target nodes, first-appearance order
	uniq        []NodeID // distinct source nodes, first-appearance order
	trees       [][]float64
	horizons    []float64
	promote     []bool
	missing     []int
}

// getScratch takes a scratch set from the coster's free list (or makes
// one), sized for a batch of nS sources and nT targets.
func (c *GraphCoster) getScratch(nS, nT int) *costsScratch {
	var s *costsScratch
	c.spareMu.Lock()
	if k := len(c.spare) - 1; k >= 0 {
		s = c.spare[k]
		c.spare = c.spare[:k]
	}
	c.spareMu.Unlock()
	if s == nil {
		n := c.g.NumNodes()
		s = &costsScratch{needed: make([]bool, n), rowOf: make([]int32, n)}
	}
	s.srcNode = resize(s.srcNode, nS)
	s.srcApproach = resize(s.srcApproach, nS)
	s.tgtNode = resize(s.tgtNode, nT)
	s.tgtApproach = resize(s.tgtApproach, nT)
	return s
}

// putScratch resets the entries s's call touched and returns it to the
// free list. Tree references are dropped so an idle scratch set never
// keeps an evicted tree alive.
func (c *GraphCoster) putScratch(s *costsScratch) {
	for _, n := range s.tgtUniq {
		s.needed[n] = false
	}
	for _, n := range s.uniq {
		s.rowOf[n] = 0
	}
	clear(s.trees)
	s.tgtUniq, s.uniq, s.missing = s.tgtUniq[:0], s.uniq[:0], s.missing[:0]
	c.spareMu.Lock()
	c.spare = append(c.spare, s)
	c.spareMu.Unlock()
}

// resize returns s with length n, reusing its backing array when it is
// large enough. Reused entries keep stale values; callers overwrite
// every entry they read.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
