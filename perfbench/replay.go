package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"mrvd/internal/core"
	"mrvd/internal/pool"
	"mrvd/internal/predict"
	"mrvd/internal/roadnet"
	"mrvd/internal/sim"
	"mrvd/internal/trace"
	"mrvd/internal/workload"
)

const (
	// paperOrdersPerDay is the NYC test day's volume (Section 6.1).
	paperOrdersPerDay = 282255
	// citySeed fixes the synthetic city's structure (hotspots, day
	// factors) for every workload; --seed varies only what is sampled
	// from it, so seeds change the inputs but not their shape.
	citySeed = 31
	// graphSeed fixes the synthetic road network the same way.
	graphSeed = 1
	// delta is the batch interval Δ in engine seconds (Table 2).
	delta = 3.0
)

// replayWorkload is one closed trace replayed through core.Runner.
type replayWorkload struct {
	ordersPerDay int
	fleet        int
	alg          string
	// Orders posted outside [from, to) engine seconds are dropped, and
	// batches before from are not measured.
	from, to float64
	shards   int // 0: one engine through Runner.Run; else Runner.ShardSession
	poolCap  int
	road     bool // per-shard GraphCosters instead of the closed form
}

// replayRep is one set-up-and-run of a replay workload.
type replayRep struct {
	instance, train, ready, setup float64 // s
	orders                        []trace.Order
	rec                           *recorder
	tr                            *tracer
	summary                       sim.Summary
	wall                          float64 // measured phase, s
	mem                           memSnap // runtime counter deltas over the measured phase
	heapMB                        float64
	rehomed                       int
	problems                      []string
}

// rep builds the instance, trains the forecaster, runs the trace once
// and checks the run's outputs.
func (w replayWorkload) rep(seed int64, traced bool) (*replayRep, error) {
	runtime.GC()
	goroutines := runtime.NumGoroutine()
	clk := newClock()
	rep := &replayRep{}
	city := workload.NewCity(workload.CityConfig{OrdersPerDay: w.ordersPerDay, Seed: citySeed})
	opts := core.Options{
		City: city, NumDrivers: w.fleet, Delta: delta, Seed: seed,
		Shards: w.shards, Pooling: pool.Config{Capacity: w.poolCap},
	}.WithDefaults()
	day := city.GenerateDay(opts.TrainDays, rand.New(rand.NewSource(seed)))
	lastDeadline := 0.0
	for _, o := range day {
		if o.PostTime >= w.from && o.PostTime < w.to {
			o.ID = trace.OrderID(len(rep.orders))
			rep.orders = append(rep.orders, o)
			lastDeadline = max(lastDeadline, o.Deadline)
		}
	}
	// Run past the last deadline, so every order is assigned or expires:
	// a run cut at the window's end would leave its last riders waiting
	// with no outcome at all.
	opts.Horizon = max(w.to, lastDeadline+2*delta)
	rep.rec = newRecorder(clk, delta, w.from, len(rep.orders))
	opts.Observer = rep.rec
	if traced {
		rep.tr = newTracer(clk)
		rep.rec.tr = rep.tr
	}
	wrapCoster := func(i int, c roadnet.Coster) roadnet.Coster {
		if rep.tr == nil {
			return c
		}
		wc := traceCoster(c, rep.tr.lane(i))
		if err := forwardingError(c, wc); err != nil {
			rep.problems = append(rep.problems, err.Error())
		}
		return wc
	}
	wrapDispatcher := func(i int, d sim.Dispatcher) sim.Dispatcher {
		if rep.tr == nil {
			return d
		}
		wd := traceDispatcher(d, rep.tr.lane(i))
		if err := forwardingError(d, wd); err != nil {
			rep.problems = append(rep.problems, err.Error())
		}
		return wd
	}
	if w.road {
		g := roadnet.GenerateGridNetwork(roadnet.GridNetworkConfig{Seed: graphSeed})
		opts.ShardCosters = func(i int) roadnet.Coster { return wrapCoster(i, roadnet.NewGraphCoster(g)) }
	} else {
		opts.Coster = wrapCoster(0, roadnet.NewDefaultCoster())
	}
	r := core.NewRunnerForTrace(opts, rep.orders, nil)
	tInstance := clk.now()

	model := &predict.STNet{}
	if _, err := r.TrainedPredictor(model); err != nil {
		return nil, err
	}
	tTrain := clk.now()

	ctx := context.Background()
	var m *sim.Metrics
	var err error
	if w.shards > 0 {
		rt, serr := r.ShardSession(sim.NewSliceSource(rep.orders), nil, core.PredictModel, model)
		if serr != nil {
			return nil, serr
		}
		newD := core.ShardDispatchers(w.alg, seed, w.shards)
		m, err = rt.Run(ctx, func(i int) (sim.Dispatcher, error) {
			d, err := newD(i)
			if err != nil {
				return nil, err
			}
			return wrapDispatcher(i, d), nil
		})
		for _, s := range rt.Stats() {
			rep.rehomed += s.RehomedIn
		}
	} else {
		d, derr := core.NewDispatcher(w.alg, seed)
		if derr != nil {
			return nil, derr
		}
		m, err = r.Run(ctx, wrapDispatcher(0, d), core.PredictModel, model)
	}
	if err != nil {
		return nil, err
	}
	end := rep.rec.snap()
	if len(rep.rec.batchWall) == 0 || rep.rec.measured < 0 {
		return nil, fmt.Errorf("replay ran no measured batch")
	}
	rep.instance = seconds(tInstance)
	rep.train = seconds(tTrain - tInstance)
	rep.ready = seconds(rep.rec.batchWall[0] - tTrain)
	rep.setup = seconds(rep.rec.batchWall[0])
	start := rep.rec.start
	rep.wall = seconds(end.wall - start.wall)
	rep.mem = memSnap{
		mallocs: end.mallocs - start.mallocs, bytes: end.bytes - start.bytes,
		numGC: end.numGC - start.numGC, pauseNano: end.pauseNano - start.pauseNano,
	}
	rep.summary = m.Summary()
	rep.heapMB = liveHeapMB(goroutines)
	runtime.KeepAlive(r)
	runtime.KeepAlive(m)
	rep.check()
	return rep, nil
}

// check compares the event stream against the engine's Summary and
// asserts that every order reached exactly one terminal outcome.
func (rep *replayRep) check() {
	s, rec := rep.summary, rep.rec
	bad := func(format string, args ...any) { rep.problems = append(rep.problems, fmt.Sprintf(format, args...)) }
	if rec.batchBad {
		bad("BatchStart events out of sequence")
	}
	if rec.unknown > 0 {
		bad("%d terminal events for unknown orders", rec.unknown)
	}
	if n := rep.failedOrders(); n > 0 {
		bad("%d of %d orders without exactly one terminal outcome", n, len(rep.orders))
	}
	t := rec.totals()
	if s.TotalOrders != len(rep.orders) || s.Served+s.Reneged+s.Canceled != s.TotalOrders {
		bad("summary outcomes %d+%d+%d do not cover %d orders (trace has %d)", s.Served, s.Reneged, s.Canceled, s.TotalOrders, len(rep.orders))
	}
	if t.assigned != s.Served || t.expired != s.Reneged || t.canceled != s.Canceled {
		bad("events (assigned %d, expired %d, canceled %d) disagree with summary (%d, %d, %d)",
			t.assigned, t.expired, t.canceled, s.Served, s.Reneged, s.Canceled)
	}
	if math.Abs(t.revenue-s.Revenue) > 1e-9*math.Max(1, s.Revenue) {
		bad("event revenue %.6f disagrees with summary %.6f", t.revenue, s.Revenue)
	}
	if s.Served == 0 {
		bad("no order was served")
	}
}

// failedOrders counts orders without exactly one terminal outcome.
func (rep *replayRep) failedOrders() int {
	n := 0
	for _, o := range rep.rec.outcomes {
		if o.n != 1 {
			n++
		}
	}
	return n
}

// stages returns each assigned order's latency split, in ms. A replay
// order is "sent" when the engine clock passes its post time, i.e.
// during the cycle before the batch that first sees it: ack is that
// cycle, wait runs to the BatchStart of the assigning batch, decide
// from there to the Assigned event. assign is their sum.
func (rep *replayRep) stages() (ack, wait, decide, assign []float64) {
	bw := rep.rec.batchWall
	for id, o := range rep.rec.outcomes {
		if o.kind != outcomeAssigned {
			continue
		}
		k := int(math.Ceil(rep.orders[id].PostTime / delta))
		if k < rep.rec.measured || int(o.batch) >= len(bw) || k > int(o.batch) {
			continue
		}
		sent := bw[k]
		if k > 0 {
			sent = bw[k-1]
		}
		ack = append(ack, ms(bw[k]-sent))
		wait = append(wait, ms(bw[o.batch]-bw[k]))
		decide = append(decide, ms(o.wall-bw[o.batch]))
		assign = append(assign, ms(o.wall-sent))
	}
	return ack, wait, decide, assign
}

// endToEnd computes the rep's end-to-end metrics.
func (rep *replayRep) endToEnd() map[string]float64 {
	s := rep.summary
	n := float64(len(rep.orders))
	iv := rep.rec.intervals()
	ack, _, _, assign := rep.stages()
	return map[string]float64{
		"setup_s":               rep.setup,
		"orders_per_s":          float64(s.Served+s.Reneged+s.Canceled) / rep.wall,
		"batch_ms_p50":          quantile(iv, 0.50),
		"batch_ms_p99":          quantile(iv, 0.99),
		"assign_ms_p50":         quantile(assign, 0.50),
		"ack_ms_p50":            quantile(ack, 0.50),
		"served_share":          ratio(float64(s.Served), n),
		"revenue_per_order":     ratio(s.Revenue, n),
		"allocs_per_order":      ratio(float64(rep.mem.mallocs), n),
		"alloc_bytes_per_order": ratio(float64(rep.mem.bytes), n),
		"live_heap_mb":          rep.heapMB,
	}
}

// runReplay is a workload's untraced run: repeated set-up-and-run reps
// for the run's duration (at least minReps), reporting the median of
// each metric over reps. Every rep uses the same seed, so their
// Summaries must agree byte for byte.
func runReplay(w replayWorkload, cfg runConfig) (*report, error) {
	out := &report{metrics: map[string]float64{}}
	per := map[string][]float64{}
	var first sim.Summary
	clk := newClock()
	for reps := 0; reps < minReps || seconds(clk.now()) < cfg.seconds; reps++ {
		// Only the rep's metrics outlive it: anything retained from one
		// rep would show up in the next one's live_heap_mb.
		rep, err := w.rep(cfg.seed, false)
		if err != nil {
			return nil, err
		}
		out.addRep(rep)
		if reps == 0 {
			first = rep.summary
		} else {
			out.sameSummary(first, rep.summary, "rep")
		}
		for k, v := range rep.endToEnd() {
			per[k] = append(per[k], v)
		}
	}
	for k, vs := range per {
		out.metrics[k] = median(vs)
	}
	out.notef("%d reps; orders/s per rep %v; batch p99 per rep %v; allocs/order per rep %v", len(per["orders_per_s"]), per["orders_per_s"], per["batch_ms_p99"], per["allocs_per_order"])
	return out, nil
}

// minReps is the fewest set-ups a run makes, so setup_s is a median of
// at least three.
const minReps = 3

// addRep folds one rep's attempts, failures and problems into the report.
func (r *report) addRep(rep *replayRep) {
	r.attempted += int64(len(rep.orders))
	r.failed += int64(rep.failedOrders())
	r.problems = append(r.problems, rep.problems...)
}

// sameSummary records a problem unless a and b are byte-identical.
func (r *report) sameSummary(a, b sim.Summary, what string) {
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		r.problems = append(r.problems, fmt.Sprintf("%s Summary differs:\n  %s\n  %s", what, ja, jb))
	}
}

// traceReplay is a workload's traced run: one untraced rep, then one
// traced rep of the same seed, whose Summary must match byte for byte.
func traceReplay(w replayWorkload, cfg runConfig) (*report, error) {
	out := &report{metrics: map[string]float64{}}
	base, err := w.rep(cfg.seed, false)
	if err != nil {
		return nil, err
	}
	out.addRep(base)
	rep, err := w.rep(cfg.seed, true)
	if err != nil {
		return nil, err
	}
	out.addRep(rep)
	out.sameSummary(base.summary, rep.summary, "traced")

	parts := rep.tr.parts(rep.rec)
	out.checkParts(parts)
	var self, assign, imb []float64
	var dispatchMS, roadnetMS, probeMS float64
	for _, p := range parts {
		self = append(self, p.self)
		assign = append(assign, p.assign)
		dispatchMS += p.assign
		roadnetMS += p.roadnet
		probeMS += p.probe
		if p.imbalance > 0 {
			imb = append(imb, p.imbalance)
		}
	}
	_, wait, decide, _ := rep.stages()
	nb := float64(len(parts))
	c := rep.tr.measuredCounts()
	g := rep.tr.graphStats()
	wallMS := rep.wall * 1e3
	lanes := float64(len(rep.tr.lanes))
	m := out.metrics
	m["core.instance_s"] = base.instance
	m["predict.train_s"] = base.train
	m["mrvd.ready_s"] = base.ready
	m["sim.cycle_self_ms_p50"] = quantile(self, 0.50)
	m["sim.cycle_self_ms_p99"] = quantile(self, 0.99)
	m["sim.allocs_per_batch"] = ratio(float64(rep.mem.mallocs), nb)
	m["sim.riders_per_batch"] = ratio(float64(rep.rec.riders), nb)
	m["sim.drivers_per_batch"] = ratio(float64(rep.rec.drivers), nb)
	m["sim.pairs_per_batch"] = ratio(float64(c.pairs), nb)
	m["dispatch.assign_ms_p50"] = quantile(assign, 0.50)
	m["dispatch.assign_ms_p99"] = quantile(assign, 0.99)
	m["dispatch.busy_share"] = ratio(dispatchMS, wallMS)
	m["dispatch.assigned_per_rider"] = ratio(float64(c.assigned), float64(c.riders))
	m["queueing.et_us_per_batch"] = ratio(probeMS*1e3, nb)
	m["roadnet.costs_ms_per_batch"] = ratio(rep.tr.laneTimeMS(spanCosts, spanPair, rep.rec.measured), nb)
	m["roadnet.costs_calls_per_batch"] = ratio(float64(c.costsCalls), nb)
	m["roadnet.cells_per_call"] = ratio(float64(c.costsCells), float64(c.costsCalls))
	m["roadnet.pair_calls_per_batch"] = ratio(float64(c.pairCalls), nb)
	m["roadnet.settled_per_order"] = ratio(float64(g.SettledNodes), float64(len(rep.orders)))
	m["roadnet.cache_hit_ratio"] = ratio(float64(g.CacheHits), float64(g.CacheHits+g.Trees+g.PartialTrees))
	m["roadnet.busy_share"] = ratio(roadnetMS, wallMS)
	m["pool.options_per_batch"] = ratio(float64(c.poolOpts), nb)
	t := rep.rec.totals()
	m["pool.shared_share"] = ratio(float64(t.shared), float64(t.assigned))
	m["shard.imbalance"] = mean(imb)
	if lanes == 1 {
		m["shard.imbalance"] = 1
	}
	m["shard.rehomed_per_round"] = ratio(float64(rep.rehomed), nb)
	m["mrvd.wait_ms_p50"] = quantile(wait, 0.50)
	m["mrvd.wait_ms_p99"] = quantile(wait, 0.99)
	m["sim.decide_ms_p50"] = quantile(decide, 0.50)
	m["sim.decide_ms_p99"] = quantile(decide, 0.99)
	for _, k := range []string{"load.late_ms_p50", "load.late_ms_p99", "server.handler_ms_p50",
		"server.handler_ms_p99", "server.transport_ms_p50", "sim.pace_lag_ms_p99", "mrvd.inflight_max"} {
		m[k] = 0 // serve-only: a replay has no gateway, pacing or handle
	}
	m["gc.cycles"] = float64(rep.mem.numGC)
	m["gc.pause_ms_total"] = float64(rep.mem.pauseNano) / 1e6
	baseOPS := base.endToEnd()["orders_per_s"]
	m["trace.overhead"] = ratio(rep.endToEnd()["orders_per_s"], baseOPS)
	out.spans = func(path string) error { return writeSpans(path, rep.rec, rep.tr, nil) }
	return out, nil
}

// laneTimeMS sums the durations of spans of the given kinds over every
// lane and measured batch.
func (t *tracer) laneTimeMS(a, b uint8, firstBatch int) float64 {
	var ns int64
	for _, l := range t.lanes {
		for _, s := range l.spans {
			if (s.kind == a || s.kind == b) && int(s.batch) >= firstBatch {
				ns += s.end - s.start
			}
		}
	}
	return ms(ns)
}

// checkParts records a problem for any batch whose traced parts do not
// fit inside its interval: parts are nested in the interval by
// construction, so a negative engine self time means a mis-attributed
// span.
func (r *report) checkParts(parts []batchParts) {
	bad := 0
	for _, p := range parts {
		if p.self < 0 {
			bad++
		}
	}
	if bad > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d of %d batches: traced parts exceed the batch interval", bad, len(parts)))
	}
}
