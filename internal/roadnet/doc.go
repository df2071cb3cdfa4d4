// Package roadnet implements the road-network substrate the paper's
// problem definition is stated on: a weighted graph G = <V, E> where each
// edge carries a travel cost, plus single-source shortest paths
// (Dijkstra on a typed, pooled binary heap), nearest-node snapping for arbitrary lat/lng
// coordinates, and a synthetic Manhattan-style grid network generator for
// cities where no real map is shipped.
//
// Dispatch algorithms never touch the graph directly; they consume a
// Coster, which is either graph-backed (shortest-path travel time) or the
// cheaper great-circle approximation at a configured speed. Both are
// provided here so experiments can ablate the choice.
//
// The hot path is batched: BatchCoster prices a whole sources×targets
// matrix in one call, which GraphCoster serves by snapping every
// endpoint once, deduplicating source nodes, and running one truncated
// Dijkstra per unique uncached source on a parallel worker pool —
// bitwise-identical to per-pair Cost queries, with several times less
// shortest-path work (see GraphCoster.Stats and BENCH_dispatch.json).
// Its per-call working set is reused across calls, so a warm batch
// allocates little beyond its result matrix.
// Single-pair Cost remains the compatibility shim, memoizing full trees
// under clock (second-chance) eviction.
package roadnet
