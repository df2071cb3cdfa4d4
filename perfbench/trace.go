package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"mrvd/internal/geo"
	"mrvd/internal/queueing"
	"mrvd/internal/roadnet"
	"mrvd/internal/sim"
)

// Span kinds recorded by the traced wrappers.
const (
	spanDispatch = iota + 1 // one sim.Dispatcher.Assign call
	spanCosts               // one roadnet.BatchCoster.Costs call
	spanPair                // one timed single-pair Coster.Cost call
	spanQueueing            // the queueing probe run beside Assign
)

var spanNames = map[uint8]string{
	spanDispatch: "dispatch.assign",
	spanCosts:    "roadnet.costs",
	spanPair:     "roadnet.cost",
	spanQueueing: "queueing.et",
}

// span is one timed call into a layer. Spans of one batch share its
// index; a span with nested set ran inside its lane's Assign, so the
// dispatch span is its parent instead of the batch.
type span struct {
	kind       uint8
	nested     bool
	batch      int32
	start, end int64
}

// laneCounts are the per-lane work counters the wrappers keep.
type laneCounts struct {
	pairCalls, costsCalls, costsCells int64
	riders, pairs, assigned, poolOpts int64
}

func (c laneCounts) add(o laneCounts) laneCounts {
	return laneCounts{
		pairCalls: c.pairCalls + o.pairCalls, costsCalls: c.costsCalls + o.costsCalls,
		costsCells: c.costsCells + o.costsCells, riders: c.riders + o.riders,
		pairs: c.pairs + o.pairs, assigned: c.assigned + o.assigned, poolOpts: c.poolOpts + o.poolOpts,
	}
}

// lane holds what one engine's wrappers record. An engine steps on one
// goroutine at a time (the shard runtime hands a shard between workers
// only across its round barriers), so a lane needs no lock.
type lane struct {
	tr        *tracer
	timePairs bool // time single-pair calls too: each is a graph search
	inAssign  bool
	etSum     float64 // keeps the queueing probe's result live
	spans     []span
	counts    laneCounts // since the first measured batch
	graph     *roadnet.GraphCoster
	graphBase roadnet.CosterStats // graph counters at the first measured batch
}

func (l *lane) record(kind uint8, start int64) {
	l.spans = append(l.spans, span{kind: kind, nested: l.inAssign, batch: l.tr.batch.Load(), start: start, end: l.tr.clk.now()})
}

// tracer owns the lanes of one traced run. batch is the index of the
// latest BatchStart, published by the recorder; -1 before the first.
type tracer struct {
	clk   clock
	batch atomic.Int32
	lanes []*lane
	model *queueing.Model
}

func newTracer(clk clock) *tracer {
	t := &tracer{clk: clk, model: queueing.NewDefault()}
	t.batch.Store(-1)
	return t
}

// lane returns engine i's lane, creating it on first use. Runners ask
// for lanes while building engines, before any batch runs.
func (t *tracer) lane(i int) *lane {
	for len(t.lanes) <= i {
		t.lanes = append(t.lanes, &lane{tr: t})
	}
	return t.lanes[i]
}

// markStart restarts every lane's counters at the first measured batch.
func (t *tracer) markStart() {
	for _, l := range t.lanes {
		l.counts = laneCounts{}
		if l.graph != nil {
			l.graphBase = l.graph.Stats()
		}
	}
}

// measuredCounts sums every lane's counters since markStart.
func (t *tracer) measuredCounts() laneCounts {
	var sum laneCounts
	for _, l := range t.lanes {
		sum = sum.add(l.counts)
	}
	return sum
}

// graphStats sums the graph costers' counters since markStart.
func (t *tracer) graphStats() roadnet.CosterStats {
	var sum roadnet.CosterStats
	for _, l := range t.lanes {
		if l.graph == nil {
			continue
		}
		s, b := l.graph.Stats(), l.graphBase
		sum.Add(roadnet.CosterStats{
			Trees: s.Trees - b.Trees, PartialTrees: s.PartialTrees - b.PartialTrees,
			SettledNodes: s.SettledNodes - b.SettledNodes, CacheHits: s.CacheHits - b.CacheHits,
		})
	}
	return sum
}

// --- dispatcher wrapper ---

// tracedDispatcher times Assign and runs the queueing probe beside it.
type tracedDispatcher struct {
	inner sim.Dispatcher
	lane  *lane
}

// tracedEstimator additionally forwards sim.IdleEstimating, which the
// engine type-asserts: dropping it would silently change the run.
type tracedEstimator struct {
	*tracedDispatcher
	est sim.IdleEstimating
}

func (d *tracedEstimator) EstimateIdle(ctx *sim.Context, region geo.RegionID) float64 {
	return d.est.EstimateIdle(ctx, region)
}

// traceDispatcher wraps d for lane l, forwarding every optional
// interface d implements.
func traceDispatcher(d sim.Dispatcher, l *lane) sim.Dispatcher {
	td := &tracedDispatcher{inner: d, lane: l}
	if est, ok := d.(sim.IdleEstimating); ok {
		return &tracedEstimator{tracedDispatcher: td, est: est}
	}
	return td
}

func (d *tracedDispatcher) Name() string { return d.inner.Name() }

func (d *tracedDispatcher) Assign(ctx *sim.Context) []sim.Assignment {
	l := d.lane
	t0 := l.tr.clk.now()
	l.etSum += probeET(l.tr.model, ctx)
	l.record(spanQueueing, t0)

	l.inAssign = true
	t0 = l.tr.clk.now()
	out := d.inner.Assign(ctx)
	l.inAssign = false
	l.record(spanDispatch, t0)

	l.counts.riders += int64(len(ctx.Riders))
	l.counts.pairs += int64(len(ctx.Pairs))
	l.counts.assigned += int64(len(out))
	l.counts.poolOpts += int64(len(ctx.PoolOptions))
	return out
}

// probeET prices the batch's queueing analysis on its own: NewAnalyzer,
// Reset on the context's region snapshot, and ExpectedIdleTime for each
// distinct destination region of the batch's pairs — the regions an
// idle-ratio dispatcher asks about. It returns the sum of the estimates
// so the work cannot be optimized away.
func probeET(model *queueing.Model, ctx *sim.Context) float64 {
	n := ctx.Grid.NumRegions()
	a := queueing.NewAnalyzer(model, n, ctx.TC)
	states := make([]queueing.RegionState, n)
	for k := range states {
		states[k] = queueing.RegionState{
			Waiting:          ctx.WaitingPerRegion[k],
			Available:        ctx.AvailablePerRegion[k],
			PredictedRiders:  ctx.PredictedRiders[k],
			PredictedDrivers: ctx.PredictedDrivers[k],
		}
	}
	a.Reset(states)
	seen := make([]bool, n)
	sum := 0.0
	for _, p := range ctx.Pairs {
		if k := int(p.DestRegion); !seen[k] {
			seen[k] = true
			sum += a.ExpectedIdleTime(k)
		}
	}
	return sum
}

// --- coster wrappers ---

// tracedCoster counts single-pair Cost calls, and times them when the
// inner coster searches a graph per call.
type tracedCoster struct {
	inner roadnet.Coster
	lane  *lane
}

func (c *tracedCoster) Cost(a, b geo.Point) float64 {
	l := c.lane
	l.counts.pairCalls++
	if !l.timePairs {
		return c.inner.Cost(a, b)
	}
	t0 := l.tr.clk.now()
	v := c.inner.Cost(a, b)
	l.record(spanPair, t0)
	return v
}

// tracedBatch forwards roadnet.BatchCoster and times Costs.
type tracedBatch struct {
	*tracedCoster
	batch roadnet.BatchCoster
}

func (c *tracedBatch) Costs(sources, targets []geo.Point) [][]float64 {
	l := c.lane
	t0 := l.tr.clk.now()
	out := c.batch.Costs(sources, targets)
	l.record(spanCosts, t0)
	l.counts.costsCalls++
	l.counts.costsCells += int64(len(sources) * len(targets))
	return out
}

// tracedAmortized forwards roadnet.PerSourceAmortized: the engine picks
// dense or lazy pricing from it.
type tracedAmortized struct {
	*tracedBatch
	am roadnet.PerSourceAmortized
}

func (c *tracedAmortized) AmortizesPerSource() bool { return c.am.AmortizesPerSource() }

// costerStatser is the counter capability the core runner publishes to
// a metrics registry when a coster has it.
type costerStatser interface{ Stats() roadnet.CosterStats }

// tracedStats forwards the Stats counters as well.
type tracedStats struct {
	*tracedAmortized
	st costerStatser
}

func (c *tracedStats) Stats() roadnet.CosterStats { return c.st.Stats() }

// traceCoster wraps c for lane l, forwarding every optional interface
// c implements. A combination no repo coster has (say Stats without
// BatchCoster) is not forwarded; checkForwarding reports it.
func traceCoster(c roadnet.Coster, l *lane) roadnet.Coster {
	if g, ok := c.(*roadnet.GraphCoster); ok {
		l.graph = g
	}
	tc := &tracedCoster{inner: c, lane: l}
	b, ok := c.(roadnet.BatchCoster)
	if !ok {
		return tc
	}
	tb := &tracedBatch{tracedCoster: tc, batch: b}
	am, ok := c.(roadnet.PerSourceAmortized)
	if !ok {
		return tb
	}
	l.timePairs = am.AmortizesPerSource()
	ta := &tracedAmortized{tracedBatch: tb, am: am}
	st, ok := c.(costerStatser)
	if !ok {
		return ta
	}
	return &tracedStats{tracedAmortized: ta, st: st}
}

// forwardingError reports how a wrapper's optional interfaces differ
// from the wrapped value's, or nil when they agree.
func forwardingError(inner, wrapped any) error {
	checks := []struct {
		name string
		has  func(any) bool
	}{
		{"sim.IdleEstimating", func(v any) bool { _, ok := v.(sim.IdleEstimating); return ok }},
		{"roadnet.BatchCoster", func(v any) bool { _, ok := v.(roadnet.BatchCoster); return ok }},
		{"roadnet.PerSourceAmortized", func(v any) bool { _, ok := v.(roadnet.PerSourceAmortized); return ok }},
		{"Stats", func(v any) bool { _, ok := v.(costerStatser); return ok }},
	}
	for _, c := range checks {
		if c.has(inner) != c.has(wrapped) {
			return fmt.Errorf("wrapper of %T: %s forwarded=%v, inner has it=%v", inner, c.name, c.has(wrapped), c.has(inner))
		}
	}
	a, aok := inner.(roadnet.PerSourceAmortized)
	b, bok := wrapped.(roadnet.PerSourceAmortized)
	if aok && bok && a.AmortizesPerSource() != b.AmortizesPerSource() {
		return fmt.Errorf("wrapper of %T: AmortizesPerSource differs", inner)
	}
	return nil
}

// --- batch accounting ---

// batchParts splits one measured batch interval into the parts the
// trace can see. For the shard runtime the dispatch and roadnet parts
// are the critical shard's: the one whose work took longest.
type batchParts struct {
	interval  float64 // ms between this BatchStart and the next
	self      float64 // interval - dispatchSelf - roadnet - probe
	assign    float64 // the critical lane's Assign time (incl. nested costing)
	dispatch  float64 // Assign minus the costing nested inside it
	roadnet   float64 // timed Costs and graph Cost calls
	probe     float64 // the queueing probe, a tracing overhead
	imbalance float64 // max/mean lane work, 0 without work
}

// parts attributes every span of the measured batches and returns one
// batchParts per measured interval.
func (t *tracer) parts(rec *recorder) []batchParts {
	if rec.measured < 0 {
		return nil
	}
	first, n := rec.measured, len(rec.batchWall)-1-rec.measured
	if n <= 0 {
		return nil
	}
	type acc struct{ assign, nestedCost, cost, probe int64 }
	per := make([][]acc, len(t.lanes))
	for li, l := range t.lanes {
		per[li] = make([]acc, n)
		for _, s := range l.spans {
			b := int(s.batch) - first
			if b < 0 || b >= n {
				continue
			}
			d := s.end - s.start
			a := &per[li][b]
			switch s.kind {
			case spanDispatch:
				a.assign += d
			case spanCosts, spanPair:
				a.cost += d
				if s.nested {
					a.nestedCost += d
				}
			case spanQueueing:
				a.probe += d
			}
		}
	}
	out := make([]batchParts, n)
	for b := range out {
		p := batchParts{interval: ms(rec.batchWall[first+b+1] - rec.batchWall[first+b])}
		var crit acc
		var critWork, sumWork, maxWork int64
		for li := range per {
			a := per[li][b]
			work := a.assign - a.nestedCost + a.cost + a.probe
			sumWork += work
			if work > critWork || li == 0 {
				crit, critWork = a, work
			}
			maxWork = max(maxWork, work)
		}
		p.assign = ms(crit.assign)
		p.dispatch = ms(crit.assign - crit.nestedCost)
		p.roadnet = ms(crit.cost)
		p.probe = ms(crit.probe)
		p.self = p.interval - p.dispatch - p.roadnet - p.probe
		if sumWork > 0 {
			p.imbalance = float64(maxWork) / (float64(sumWork) / float64(len(per)))
		}
		out[b] = p
	}
	return out
}

// --- span output ---

// spanRecord is one line of the span file.
type spanRecord struct {
	Name    string `json:"name"`
	Lane    int    `json:"lane"`
	Batch   int32  `json:"batch"`
	Order   int64  `json:"order"`
	Parent  string `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// writeSpans writes the run's spans as JSON lines: one "batch" span per
// BatchStart interval, every wrapper span with its parent, and extra
// (per-order spans of the serve workload).
func writeSpans(path string, rec *recorder, t *tracer, extra []spanRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	var encErr error
	put := func(r spanRecord) {
		if encErr == nil {
			encErr = enc.Encode(r)
		}
	}
	for b := 0; b+1 < len(rec.batchWall); b++ {
		put(spanRecord{Name: "sim.batch", Batch: int32(b), Order: -1, StartNS: rec.batchWall[b], EndNS: rec.batchWall[b+1]})
	}
	for li, l := range t.lanes {
		for _, s := range l.spans {
			parent := "sim.batch"
			if s.nested {
				parent = spanNames[spanDispatch]
			}
			put(spanRecord{Name: spanNames[s.kind], Lane: li, Batch: s.batch, Order: -1, Parent: parent, StartNS: s.start, EndNS: s.end})
		}
	}
	for _, r := range extra {
		put(r)
	}
	if encErr != nil {
		f.Close()
		return encErr
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
