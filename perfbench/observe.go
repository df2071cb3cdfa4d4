package main

import (
	"math"
	"runtime"
	"sync/atomic"

	"mrvd"
	"mrvd/internal/sim"
)

// Outcome kinds the recorder stores per order.
const (
	outcomeAssigned = iota + 1
	outcomeExpired
	outcomeCanceled
)

// outcome is one order's terminal event as the recorder saw it.
type outcome struct {
	n       uint8 // terminal events seen; exactly 1 is correct
	kind    uint8
	shared  bool
	batch   int32 // batch index of the terminal event
	wall    int64 // clock ns of the terminal event
	revenue float64
}

// recorder is the benchmark's sim.Observer, subscribed through the
// public Observer hook. It stamps every batch boundary and every
// terminal outcome with the wall clock. The engine calls it serially
// (on the engine goroutine, or under the shard runtime's observer
// lock); readers look only after the run has ended.
type recorder struct {
	clk   clock
	delta float64
	// measureFrom is the first simulated time that counts: batches
	// before it are warm-up and are not measured.
	measureFrom float64

	batchWall []int64 // clock ns of each BatchStart, by batch index
	batchBad  bool    // a BatchStart arrived out of sequence
	measured  int     // index of the first measured batch, -1 before
	riders    int64   // sum of waiting riders over measured batches
	drivers   int64   // sum of available drivers over measured batches

	outcomes []outcome // by order id
	unknown  int       // terminal events for ids outside outcomes

	start      memSnap // runtime counters at the first measured batch
	firstBatch chan struct{}

	// Set only on traced runs. handle is stored once the gateway's
	// session exists, while the engine may already be calling in.
	tr      *tracer
	handle  atomic.Pointer[mrvd.ServeHandle]
	inflMax int
}

func newRecorder(clk clock, delta, measureFrom float64, orders int) *recorder {
	return &recorder{
		clk:         clk,
		delta:       delta,
		measureFrom: measureFrom,
		measured:    -1,
		outcomes:    make([]outcome, orders),
		firstBatch:  make(chan struct{}),
	}
}

// memSnap is the slice of runtime.MemStats a run reports.
type memSnap struct {
	wall      int64
	mallocs   uint64
	bytes     uint64
	numGC     uint32
	pauseNano uint64
}

func (r *recorder) snap() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{wall: r.clk.now(), mallocs: m.Mallocs, bytes: m.TotalAlloc, numGC: m.NumGC, pauseNano: m.PauseTotalNs}
}

func (r *recorder) OnBatchStart(e sim.BatchStartEvent) {
	now := r.clk.now()
	if e.Batch != len(r.batchWall) {
		r.batchBad = true
	}
	r.batchWall = append(r.batchWall, now)
	if e.Batch == 0 {
		close(r.firstBatch)
	}
	if r.tr != nil {
		r.tr.batch.Store(int32(e.Batch))
	}
	if r.measured < 0 && e.Now >= r.measureFrom {
		r.measured = e.Batch
		r.start = r.snap()
		if r.tr != nil {
			r.tr.markStart()
		}
	}
	if r.measured >= 0 {
		r.riders += int64(e.Waiting)
		r.drivers += int64(e.Available)
		if h := r.handle.Load(); h != nil {
			r.inflMax = max(r.inflMax, h.InFlight())
		}
	}
}

func (r *recorder) terminal(id int, now float64, kind uint8, shared bool, revenue float64) {
	if id < 0 || id >= len(r.outcomes) {
		r.unknown++
		return
	}
	o := &r.outcomes[id]
	o.n++
	o.kind = kind
	o.shared = shared
	o.batch = int32(math.Round(now / r.delta))
	o.wall = r.clk.now()
	o.revenue = revenue
}

func (r *recorder) OnAssigned(e sim.AssignedEvent) {
	r.terminal(int(e.Rider.Order.ID), e.Now, outcomeAssigned, e.Shared, e.Revenue)
}

func (r *recorder) OnExpired(e sim.ExpiredEvent) {
	r.terminal(int(e.Rider.Order.ID), e.Now, outcomeExpired, false, 0)
}

func (r *recorder) OnCanceled(e sim.CanceledEvent) {
	r.terminal(int(e.Rider.Order.ID), e.Now, outcomeCanceled, false, 0)
}

func (r *recorder) OnDeclined(sim.DeclinedEvent)         {}
func (r *recorder) OnRepositioned(sim.RepositionedEvent) {}
func (r *recorder) OnPickedUp(sim.PickedUpEvent)         {}
func (r *recorder) OnDroppedOff(sim.DroppedOffEvent)     {}

// intervals returns the wall milliseconds between consecutive measured
// BatchStarts: one full engine cycle each (for the shard runtime, one
// lockstep round).
func (r *recorder) intervals() []float64 {
	if r.measured < 0 {
		return nil
	}
	var out []float64
	for b := r.measured; b+1 < len(r.batchWall); b++ {
		out = append(out, ms(r.batchWall[b+1]-r.batchWall[b]))
	}
	return out
}

// eventTotals folds the terminal events into the counts the engine's
// Summary must agree with.
type eventTotals struct {
	assigned, expired, canceled, shared int
	revenue                             float64
}

func (r *recorder) totals() eventTotals {
	var t eventTotals
	for _, o := range r.outcomes {
		switch o.kind {
		case outcomeAssigned:
			t.assigned++
			t.revenue += o.revenue
			if o.shared {
				t.shared++
			}
		case outcomeExpired:
			t.expired++
		case outcomeCanceled:
			t.canceled++
		}
	}
	return t
}
