package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mrvd"
	"mrvd/internal/core"
	"mrvd/internal/geo"
	"mrvd/internal/obs"
	"mrvd/internal/predict"
	"mrvd/internal/roadnet"
	"mrvd/internal/server"
	"mrvd/internal/workload"
)

// serveSpec is an open loop over the in-process HTTP gateway.
type serveSpec struct {
	fleet int
	alg   string
	// rate is the offered load in orders per wall second.
	rate float64
	// batchWall paces the engine: one Δ batch takes this much wall time.
	batchWall time.Duration
	// patience is the gateway's default pickup patience, engine seconds.
	patience float64
	// sessions is how many sessions a run measures.
	sessions int
}

// serveWorkload: LS (the gateway default), 2,000 drivers, Δ = 3 s paced
// to 15 ms of wall time, ≈400 orders/s with the metrics registry on.
var serveWorkload = serveSpec{fleet: 2000, alg: "LS", rate: 400, batchWall: 15 * time.Millisecond, patience: 300, sessions: minReps}

// pace is the engine seconds per wall second.
func (w serveSpec) pace() float64 { return delta / w.batchWall.Seconds() }

// seqHeader carries the request's index in the schedule, so the traced
// handler wrapper can join its span to the client's record.
const seqHeader = "X-Perfbench-Seq"

// requestTimeout bounds one request; a request that hits it fails.
const requestTimeout = 5 * time.Second

// poissonSchedule returns send offsets (ns from the start of sending)
// of a Poisson process at rate per second over the given seconds. The
// same seed gives the same schedule.
func poissonSchedule(seed int64, rate, secs float64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	var out []int64
	for t := rng.ExpFloat64() / rate; t < secs; t += rng.ExpFloat64() / rate {
		out = append(out, int64(t*1e9))
	}
	return out
}

// serveInputs are generated once per process, before any timing.
type serveInputs struct {
	city   *workload.City
	starts []geo.Point
	sched  []int64
	bodies [][]byte
}

func (w serveSpec) inputs(seed int64, secs float64) (serveInputs, error) {
	// The city's daily volume matches the offered rate in engine time,
	// so the forecaster sees the demand the gateway receives.
	city := workload.NewCity(workload.CityConfig{OrdersPerDay: int(w.rate * 86400 / w.pace()), Seed: citySeed})
	rng := rand.New(rand.NewSource(seed))
	day := city.GenerateDay(core.Options{}.WithDefaults().TrainDays, rng)
	in := serveInputs{
		city:   city,
		starts: city.InitialDrivers(w.fleet, day, rng),
		sched:  poissonSchedule(seed, w.rate, secs),
	}
	type point struct {
		Lng float64 `json:"lng"`
		Lat float64 `json:"lat"`
	}
	// Each request is an order drawn uniformly from the whole day, so
	// demand is stationary over the run and matches where the fleet
	// starts (InitialDrivers samples the day's pickups too).
	for range in.sched {
		o := day[rng.Intn(len(day))]
		b, err := json.Marshal(struct {
			Pickup  point `json:"pickup"`
			Dropoff point `json:"dropoff"`
		}{point{o.Pickup.Lng, o.Pickup.Lat}, point{o.Dropoff.Lng, o.Dropoff.Lat}})
		if err != nil {
			return in, err
		}
		in.bodies = append(in.bodies, b)
	}
	return in, nil
}

// sendResult classifies one request by the failed_share definition.
type sendResult uint8

const (
	sendAccepted  sendResult = iota // 202: the order is in the system
	sendRejected                    // any other status: 429, 5xx, 4xx
	sendTimeout                     // the request hit requestTimeout
	sendTransport                   // connection or protocol error
)

func classifySend(status int, err error) sendResult {
	var ne net.Error
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.As(err, &ne) && ne.Timeout():
		return sendTimeout
	case err != nil:
		return sendTransport
	case status != http.StatusAccepted:
		return sendRejected
	}
	return sendAccepted
}

// orderFailed applies the failed_share definition: a request that was
// not accepted, or an accepted order without exactly one terminal
// outcome. Expired and rider-canceled orders are outcomes, not failures.
func orderFailed(res sendResult, terminals uint8) bool {
	return res != sendAccepted || terminals != 1
}

// sendRecord is the client's view of one scheduled request.
type sendRecord struct {
	due, sent, acked int64 // clock ns
	result           sendResult
	id               int // order id from the 202 body, -1 otherwise
}

// serveSession is one started gateway session.
type serveSession struct {
	clk        clock
	rec        *recorder
	srv        *server.Server
	svc        *mrvd.Service
	tInstance  int64 // NewService done
	cancel     context.CancelFunc
	goroutines int // live goroutines before the session started
}

// startSession builds the service and gateway and waits for the first
// BatchStart: the set-up a user of mrvd-serve -metrics pays.
func (w serveSpec) startSession(in serveInputs, seed int64, horizon float64, tr *tracer) (*serveSession, error) {
	runtime.GC()
	clk := newClock()
	s := &serveSession{clk: clk, rec: newRecorder(clk, delta, 0, len(in.sched)), goroutines: runtime.NumGoroutine()}
	if tr != nil {
		tr.clk = clk
		s.rec.tr = tr
	}
	reg := mrvd.NewMetricsRegistry()
	obs.RegisterProcessMetrics(reg)
	opts := []mrvd.Option{
		mrvd.WithCity(in.city), mrvd.WithFleet(w.fleet), mrvd.WithBatchInterval(delta),
		mrvd.WithHorizon(horizon), mrvd.WithSeed(seed), mrvd.WithPace(w.pace()),
		mrvd.WithPrediction(mrvd.PredictModel, &predict.STNet{}),
		mrvd.WithObservability(reg, nil), mrvd.WithObserver(s.rec),
	}
	if tr != nil {
		opts = append(opts, mrvd.WithCoster(traceCoster(roadnet.NewDefaultCoster(), tr.lane(0))))
	}
	svc, err := mrvd.NewService(opts...)
	if err != nil {
		return nil, err
	}
	s.svc = svc
	s.tInstance = clk.now()
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	srv, err := server.New(ctx, svc, server.Config{
		Algorithm: w.alg, Starts: in.starts, Fleet: w.fleet, DefaultPatience: w.patience, Metrics: reg,
	})
	if err != nil {
		cancel()
		return nil, err
	}
	s.srv = srv
	if tr != nil {
		s.rec.handle.Store(srv.Handle())
	}
	select {
	case <-s.rec.firstBatch:
		return s, nil
	case <-srv.Handle().Done():
		_, err := srv.Result()
		cancel()
		return nil, fmt.Errorf("serve session ended before its first batch: %v", err)
	}
}

func (s *serveSession) setup() float64 { return seconds(s.rec.batchWall[0]) }

// serveRun is one measured session's raw results.
type serveRun struct {
	sess     *serveSession
	sends    []sendRecord
	handler  *tracedHandler
	origin   int64 // clock ns sending started
	end      memSnap
	heapMB   float64
	problems []string
}

// measure serves the gateway over loopback HTTP, replays the schedule
// open-loop from at most GOMAXPROCS sender goroutines and connections,
// drains, and waits for the session to end.
func (w serveSpec) measure(s *serveSession, in serveInputs, traced bool) (*serveRun, error) {
	run := &serveRun{sess: s}
	defer s.cancel()
	var h http.Handler = s.srv
	if traced {
		run.handler = &tracedHandler{inner: s.srv, clk: s.clk, start: make([]int64, len(in.sched)), end: make([]int64, len(in.sched))}
		h = run.handler
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Handle().Stop()
		_, _ = s.srv.Result() // the stop's cancellation is the only possible result
		return nil, err
	}
	hs := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()

	senders := runtime.GOMAXPROCS(0)
	transport := &http.Transport{MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders, DisableCompression: true}
	client := &http.Client{Transport: transport, Timeout: requestTimeout}
	url := "http://" + ln.Addr().String() + "/v1/orders"
	run.sends = make([]sendRecord, len(in.sched))
	run.origin = s.clk.now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(in.sched) {
					return
				}
				due := run.origin + in.sched[i]
				if d := due - s.clk.now(); d > 0 {
					time.Sleep(time.Duration(d))
				}
				run.sends[i] = send(client, url, s.clk, i, due, in.bodies[i])
			}
		}()
	}
	wg.Wait()
	s.srv.Drain()
	select {
	case <-s.srv.Handle().Done():
	case <-time.After(60 * time.Second):
		run.problems = append(run.problems, "serve session did not end within 60s of the drain")
		s.srv.Handle().Stop()
		<-s.srv.Handle().Done()
	}
	m, err := s.srv.Result()
	run.end = s.rec.snap()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if serr := hs.Shutdown(shutdownCtx); serr != nil {
		run.problems = append(run.problems, fmt.Sprintf("http shutdown: %v", serr))
	}
	if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
		run.problems = append(run.problems, fmt.Sprintf("http serve: %v", serr))
	}
	transport.CloseIdleConnections()
	if err != nil {
		return nil, fmt.Errorf("serve session: %w", err)
	}
	run.heapMB = liveHeapMB(s.goroutines)

	t := s.rec.totals()
	if t.assigned != m.Served || t.expired != m.Reneged || t.canceled != m.Canceled {
		run.problems = append(run.problems, fmt.Sprintf("events (assigned %d, expired %d, canceled %d) disagree with summary (%d, %d, %d)",
			t.assigned, t.expired, t.canceled, m.Served, m.Reneged, m.Canceled))
	}
	if s.rec.batchBad || s.rec.unknown > 0 {
		run.problems = append(run.problems, fmt.Sprintf("event stream malformed: out-of-sequence batches %v, events for unknown orders %d", s.rec.batchBad, s.rec.unknown))
	}
	if n := run.unresolved(); n > 0 {
		run.problems = append(run.problems, fmt.Sprintf("%d accepted orders did not resolve exactly once before the drain ended", n))
	}
	if t.assigned == 0 {
		run.problems = append(run.problems, "no order was served")
	}
	return run, nil
}

// send posts one order without waiting for its outcome.
func send(client *http.Client, url string, clk clock, i int, due int64, body []byte) sendRecord {
	r := sendRecord{due: due, id: -1}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		r.result = sendTransport
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(seqHeader, strconv.Itoa(i))
	r.sent = clk.now()
	resp, err := client.Do(req)
	if err != nil {
		r.acked = clk.now()
		r.result = classifySend(0, err)
		return r
	}
	var v struct {
		ID int `json:"id"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&v)
	_, cerr := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	r.acked = clk.now()
	r.result = classifySend(resp.StatusCode, errors.Join(derr, cerr))
	if r.result == sendAccepted {
		r.id = v.ID
	}
	return r
}

// terminals returns how many terminal events an accepted order got.
func (run *serveRun) terminals(r sendRecord) uint8 {
	if r.id < 0 || r.id >= len(run.sess.rec.outcomes) {
		return 0
	}
	return run.sess.rec.outcomes[r.id].n
}

func (run *serveRun) unresolved() int {
	n := 0
	for _, r := range run.sends {
		if r.result == sendAccepted && run.terminals(r) != 1 {
			n++
		}
	}
	return n
}

func (run *serveRun) failed() int64 {
	var n int64
	for _, r := range run.sends {
		if orderFailed(r.result, run.terminals(r)) {
			n++
		}
	}
	return n
}

// orderStages is one assigned order's latency split, in ms: ack runs
// from the scheduled send to the 202, wait from the 202 to the
// BatchStart of the assigning batch, decide from there to the Assigned
// event. wait is negative when the engine picked the order up before
// the client read its 202; the three always sum to assign.
type orderStages struct {
	seq                       int
	ack, wait, decide, assign float64
	late, handler, transport  float64
	hasHandler                bool
	handlerStart, handlerEnd  int64
	assignedWall, batchWallAt int64
}

func (run *serveRun) stages() []orderStages {
	rec := run.sess.rec
	var out []orderStages
	for i, r := range run.sends {
		if r.result != sendAccepted || run.terminals(r) != 1 {
			continue
		}
		o := rec.outcomes[r.id]
		if o.kind != outcomeAssigned || int(o.batch) >= len(rec.batchWall) {
			continue
		}
		bs := rec.batchWall[o.batch]
		st := orderStages{
			seq: i, ack: ms(r.acked - r.due), wait: ms(bs - r.acked), decide: ms(o.wall - bs),
			assign: ms(o.wall - r.due), late: ms(r.sent - r.due), assignedWall: o.wall, batchWallAt: bs,
		}
		if run.handler != nil {
			if hs, he := run.handler.span(i); he > 0 {
				st.hasHandler = true
				st.handlerStart, st.handlerEnd = hs, he
				st.handler = ms(he - hs)
				st.transport = st.ack - st.late - st.handler
			}
		}
		out = append(out, st)
	}
	return out
}

// endToEnd computes the measured session's end-to-end metrics.
func (run *serveRun) endToEnd() map[string]float64 {
	rec := run.sess.rec
	var assign, ack []float64
	for _, st := range run.stages() {
		assign = append(assign, st.assign)
		ack = append(ack, st.ack)
	}
	resolved, last := 0, run.origin
	for _, r := range run.sends {
		if r.result == sendAccepted && run.terminals(r) == 1 {
			resolved++
			last = max(last, rec.outcomes[r.id].wall)
		}
	}
	t := rec.totals()
	n := float64(len(run.sends))
	iv := rec.intervals()
	start := rec.start
	return map[string]float64{
		"setup_s":               run.sess.setup(),
		"orders_per_s":          ratio(float64(resolved), seconds(last-run.origin)),
		"batch_ms_p50":          quantile(iv, 0.50),
		"batch_ms_p99":          quantile(iv, 0.99),
		"assign_ms_p50":         quantile(assign, 0.50),
		"ack_ms_p50":            quantile(ack, 0.50),
		"served_share":          ratio(float64(t.assigned), n),
		"revenue_per_order":     ratio(t.revenue, n),
		"allocs_per_order":      ratio(float64(run.end.mallocs-start.mallocs), n),
		"alloc_bytes_per_order": ratio(float64(run.end.bytes-start.bytes), n),
		"live_heap_mb":          run.heapMB,
	}
}

// horizon is the session length in engine seconds: the send phase at
// full pace plus half a wall second of slack, then every order's
// patience and two batches, so each accepted order resolves before the
// end. An order sent later than the slack may not resolve, and fails.
func (w serveSpec) horizon(secs float64) float64 {
	return w.pace()*(secs+0.5) + w.patience + 2*delta
}

// session starts a gateway session on inputs in and measures it.
func (w serveSpec) session(in serveInputs, seed int64, secs float64, tr *tracer) (*serveRun, error) {
	s, err := w.startSession(in, seed, w.horizon(secs), tr)
	if err != nil {
		return nil, err
	}
	return w.measure(s, in, tr != nil)
}

// sessionSeeds derives each session's input seed from the run's seed.
func (w serveSpec) sessionSeeds(seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, w.sessions)
	for i := range out {
		out[i] = rng.Int63()
	}
	return out
}

// runServe measures w.sessions sessions, each sending for an equal share
// of the run's seconds on inputs of its own, and reports the median of
// each metric over sessions. Drawing each session's orders and fleet
// afresh averages out how one sample's supply happens to meet its
// demand, which otherwise sets how long the slowest orders wait.
func runServe(w serveSpec, cfg runConfig) (*report, error) {
	out := &report{metrics: map[string]float64{}}
	per := map[string][]float64{}
	secs := cfg.seconds / float64(w.sessions)
	for _, seed := range w.sessionSeeds(cfg.seed) {
		in, err := w.inputs(seed, secs)
		if err != nil {
			return nil, err
		}
		run, err := w.session(in, seed, secs, nil)
		if err != nil {
			return nil, err
		}
		out.attempted += int64(len(run.sends))
		out.failed += run.failed()
		out.problems = append(out.problems, run.problems...)
		for k, v := range run.endToEnd() {
			per[k] = append(per[k], v)
		}
	}
	for k, vs := range per {
		out.metrics[k] = median(vs)
	}
	out.notef("%d sessions from %d senders; %d orders sent; assign p50 per session %v", w.sessions, runtime.GOMAXPROCS(0), out.attempted, per["assign_ms_p50"])
	return out, nil
}

// traceServe makes one untraced and one traced session on the first
// session's inputs and reports the per-layer metrics of the traced one.
func traceServe(w serveSpec, cfg runConfig) (*report, error) {
	seed := w.sessionSeeds(cfg.seed)[0]
	secs := cfg.seconds / float64(w.sessions)
	in, err := w.inputs(seed, secs)
	if err != nil {
		return nil, err
	}
	base, err := w.session(in, seed, secs, nil)
	if err != nil {
		return nil, err
	}
	baseSess := base.sess
	out := &report{metrics: map[string]float64{}}
	out.attempted += int64(len(base.sends))
	out.failed += base.failed()
	out.problems = append(out.problems, base.problems...)

	// The serve session trains its own forecaster inside Start; time the
	// same training on the same instance separately.
	r := baseSess.svc.Runner()
	t0 := time.Now()
	if _, err := r.TrainedPredictor(&predict.STNet{}); err != nil {
		return nil, err
	}
	train := time.Since(t0).Seconds()

	tr := newTracer(newClock())
	run, err := w.session(in, seed, secs, tr)
	if err != nil {
		return nil, err
	}
	sess := run.sess
	out.attempted += int64(len(run.sends))
	out.failed += run.failed()
	out.problems = append(out.problems, run.problems...)

	rec := sess.rec
	parts := tr.parts(rec)
	out.checkParts(parts)
	var self, late, handler, transport, wait, decide, lag []float64
	for _, p := range parts {
		self = append(self, p.self)
	}
	var spans []spanRecord
	for _, st := range run.stages() {
		late = append(late, st.late)
		wait = append(wait, st.wait)
		decide = append(decide, st.decide)
		if st.hasHandler {
			handler = append(handler, st.handler)
			transport = append(transport, st.transport)
			if st.transport < 0 {
				out.problems = append(out.problems, fmt.Sprintf("order %d: handler span %.3fms outlasts the client's request", st.seq, st.handler))
			}
		}
		if st.decide < 0 {
			out.problems = append(out.problems, fmt.Sprintf("order %d assigned before its batch started", st.seq))
		}
		spans = append(spans, run.orderSpans(st)...)
	}
	bw := rec.batchWall
	for b := range bw {
		due := bw[0] + int64(float64(b)*w.batchWall.Seconds()*1e9)
		lag = append(lag, ms(bw[b]-due))
	}
	nb := float64(len(parts))
	c := tr.measuredCounts()
	m := out.metrics
	for _, d := range perLayer {
		m[d.name] = 0 // replay-only layers (dispatch, queueing, pool, shard) read 0
	}
	m["core.instance_s"] = seconds(baseSess.tInstance)
	m["predict.train_s"] = train
	m["mrvd.ready_s"] = seconds(baseSess.rec.batchWall[0] - baseSess.tInstance)
	m["sim.cycle_self_ms_p50"] = quantile(self, 0.50)
	m["sim.cycle_self_ms_p99"] = quantile(self, 0.99)
	m["sim.allocs_per_batch"] = ratio(float64(run.end.mallocs-rec.start.mallocs), nb)
	m["sim.riders_per_batch"] = ratio(float64(rec.riders), nb)
	m["sim.drivers_per_batch"] = ratio(float64(rec.drivers), nb)
	m["roadnet.pair_calls_per_batch"] = ratio(float64(c.pairCalls), nb)
	m["roadnet.costs_calls_per_batch"] = ratio(float64(c.costsCalls), nb)
	m["roadnet.cells_per_call"] = ratio(float64(c.costsCells), float64(c.costsCalls))
	m["shard.imbalance"] = 1
	m["load.late_ms_p50"] = quantile(late, 0.50)
	m["load.late_ms_p99"] = quantile(late, 0.99)
	m["server.handler_ms_p50"] = quantile(handler, 0.50)
	m["server.handler_ms_p99"] = quantile(handler, 0.99)
	m["server.transport_ms_p50"] = quantile(transport, 0.50)
	m["mrvd.wait_ms_p50"] = quantile(wait, 0.50)
	m["mrvd.wait_ms_p99"] = quantile(wait, 0.99)
	m["sim.decide_ms_p50"] = quantile(decide, 0.50)
	m["sim.decide_ms_p99"] = quantile(decide, 0.99)
	m["sim.pace_lag_ms_p99"] = quantile(lag, 0.99)
	m["mrvd.inflight_max"] = float64(rec.inflMax)
	m["gc.cycles"] = float64(run.end.numGC - rec.start.numGC)
	m["gc.pause_ms_total"] = float64(run.end.pauseNano-rec.start.pauseNano) / 1e6
	m["trace.overhead"] = ratio(run.endToEnd()["orders_per_s"], base.endToEnd()["orders_per_s"])
	out.spans = func(path string) error { return writeSpans(path, rec, tr, spans) }
	return out, nil
}

// orderSpans renders one order's stages as spans sharing its sequence
// number.
func (run *serveRun) orderSpans(st orderStages) []spanRecord {
	r := run.sends[st.seq]
	order := int64(st.seq)
	out := []spanRecord{
		{Name: "order", Order: order, Batch: -1, StartNS: r.due, EndNS: st.assignedWall},
		{Name: "load.late", Order: order, Batch: -1, Parent: "order", StartNS: r.due, EndNS: r.sent},
		{Name: "order.ack", Order: order, Batch: -1, Parent: "order", StartNS: r.due, EndNS: r.acked},
		{Name: "mrvd.wait", Order: order, Batch: -1, Parent: "order", StartNS: r.acked, EndNS: st.batchWallAt},
		{Name: "sim.decide", Order: order, Batch: -1, Parent: "order", StartNS: st.batchWallAt, EndNS: st.assignedWall},
	}
	if st.hasHandler {
		out = append(out, spanRecord{Name: "server.handler", Order: order, Batch: -1, Parent: "order.ack",
			StartNS: st.handlerStart, EndNS: st.handlerEnd})
	}
	return out
}

// tracedHandler times the gateway's http.Handler per request, keyed by
// the request's schedule index.
type tracedHandler struct {
	inner      http.Handler
	clk        clock
	mu         sync.Mutex
	start, end []int64
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := h.clk.now()
	h.inner.ServeHTTP(w, r)
	t1 := h.clk.now()
	seq, err := strconv.Atoi(r.Header.Get(seqHeader))
	if err != nil || seq < 0 || seq >= len(h.start) {
		return
	}
	h.mu.Lock()
	h.start[seq], h.end[seq] = t0, t1
	h.mu.Unlock()
}

// span returns request seq's handler interval; end is 0 when the
// handler never saw it.
func (h *tracedHandler) span(seq int) (start, end int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.start[seq], h.end[seq]
}
