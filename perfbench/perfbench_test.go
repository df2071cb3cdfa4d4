package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"os"
	"slices"
	"testing"
	"time"

	"mrvd/internal/core"
	"mrvd/internal/geo"
	"mrvd/internal/roadnet"
	"mrvd/internal/sim"
	"mrvd/internal/trace"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	orig := slices.Clone(xs)
	for _, tc := range []struct{ p, want float64 }{
		{0.01, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {0.99, 10}, {1, 10},
	} {
		if got := quantile(xs, tc.p); got != tc.want {
			t.Errorf("quantile(p=%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if !slices.Equal(xs, orig) {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if got := median([]float64{4}); got != 4 {
		t.Errorf("median of one = %v, want 4", got)
	}
}

func TestPoissonScheduleDeterministicInSeed(t *testing.T) {
	const rate, secs = 400.0, 20.0
	a, b := poissonSchedule(7, rate, secs), poissonSchedule(7, rate, secs)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if slices.Equal(a, poissonSchedule(8, rate, secs)) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i, at := range a {
		if at < 0 || at >= int64(secs*1e9) || (i > 0 && at < a[i-1]) {
			t.Fatalf("send %d at %dns is out of order or outside [0, %vs)", i, at, secs)
		}
	}
	// A Poisson count over rate*secs = 8000 expected sends has a
	// standard deviation of ~89; five of them is a generous band.
	if want := rate * secs; math.Abs(float64(len(a))-want) > 5*math.Sqrt(want) {
		t.Fatalf("%d sends, want about %v", len(a), want)
	}
}

func TestClassifyFailures(t *testing.T) {
	for _, tc := range []struct {
		name      string
		status    int
		err       error
		terminals uint8
		failed    bool
	}{
		{"assigned", http.StatusAccepted, nil, 1, false},
		{"expired is an outcome", http.StatusAccepted, nil, 1, false},
		{"429 queue full", http.StatusTooManyRequests, nil, 0, true},
		{"500", http.StatusInternalServerError, nil, 0, true},
		{"503 session ended", http.StatusServiceUnavailable, nil, 0, true},
		{"client timeout", 0, context.DeadlineExceeded, 0, true},
		{"net timeout", 0, timeoutErr{}, 0, true},
		{"transport error", 0, errors.New("connection reset"), 0, true},
		{"accepted, never resolved", http.StatusAccepted, nil, 0, true},
		{"accepted, resolved twice", http.StatusAccepted, nil, 2, true},
	} {
		res := classifySend(tc.status, tc.err)
		if got := orderFailed(res, tc.terminals); got != tc.failed {
			t.Errorf("%s: failed = %v, want %v (result %d)", tc.name, got, tc.failed, res)
		}
	}
	if res := classifySend(0, timeoutErr{}); res != sendTimeout {
		t.Errorf("a net.Error timeout classified as %d, want sendTimeout", res)
	}
	if res := classifySend(0, errors.New("reset")); res != sendTransport {
		t.Errorf("a plain error classified as %d, want sendTransport", res)
	}
}

type timeoutErr struct{}

func (timeoutErr) Error() string   { return "i/o timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

// plainCoster implements only roadnet.Coster.
type plainCoster struct{}

func (plainCoster) Cost(a, b geo.Point) float64 { return a.Lng - b.Lng }

// batchOnly implements roadnet.BatchCoster without PerSourceAmortized.
type batchOnly struct{ plainCoster }

func (batchOnly) Costs(s, t []geo.Point) [][]float64 { return nil }

func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	tr := newTracer(newClock())
	g := roadnet.GenerateGridNetwork(roadnet.GridNetworkConfig{Rows: 6, Cols: 6, Seed: 1})
	for _, c := range []roadnet.Coster{plainCoster{}, batchOnly{}, roadnet.NewDefaultCoster(), roadnet.NewGraphCoster(g)} {
		if err := forwardingError(c, traceCoster(c, tr.lane(0))); err != nil {
			t.Error(err)
		}
	}
	for _, name := range core.AlgorithmNames() {
		d, err := core.NewDispatcher(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := forwardingError(d, traceDispatcher(d, tr.lane(0))); err != nil {
			t.Error(err)
		}
	}
	// The check itself must catch a wrapper that drops an interface.
	irg, _ := core.NewDispatcher("IRG", 1)
	if forwardingError(irg, &tracedDispatcher{inner: irg}) == nil {
		t.Error("a wrapper hiding IdleEstimating passed the forwarding check")
	}
	gc := roadnet.NewDefaultCoster()
	if forwardingError(gc, &tracedCoster{inner: gc}) == nil {
		t.Error("a wrapper hiding BatchCoster passed the forwarding check")
	}
}

// TestStagesAddUp builds a synthetic replay timeline and checks that
// each order's ack, wait and decide sum to its assign latency.
func TestStagesAddUp(t *testing.T) {
	rec := newRecorder(newClock(), delta, 0, 3)
	rec.measured = 0
	rec.batchWall = []int64{1e6, 3e6, 7e6, 8e6}
	rec.outcomes[0] = outcome{n: 1, kind: outcomeAssigned, batch: 1, wall: 3.5e6}
	rec.outcomes[1] = outcome{n: 1, kind: outcomeAssigned, batch: 3, wall: 8.25e6}
	rec.outcomes[2] = outcome{n: 1, kind: outcomeExpired, batch: 3, wall: 8.5e6}
	rep := &replayRep{rec: rec, orders: []trace.Order{{ID: 0, PostTime: 1}, {ID: 1, PostTime: 4}, {ID: 2, PostTime: 5}}}
	ack, wait, decide, assign := rep.stages()
	if len(assign) != 2 {
		t.Fatalf("%d assigned orders staged, want 2", len(assign))
	}
	for i := range assign {
		if sum := ack[i] + wait[i] + decide[i]; math.Abs(sum-assign[i]) > 1e-9 {
			t.Errorf("order %d: ack %v + wait %v + decide %v = %v, want assign %v", i, ack[i], wait[i], decide[i], sum, assign[i])
		}
	}
	// Order 1 posts at t=4s: first seen by batch 2 (t=6s), "sent" at
	// batch 1's start, assigned in batch 3.
	if ack[1] != 4 || wait[1] != 1 || decide[1] != 0.25 {
		t.Errorf("order 1 stages = %v/%v/%v ms, want 4/1/0.25", ack[1], wait[1], decide[1])
	}

	// A serve order: the handler span sits inside the client's request.
	srec := newRecorder(newClock(), delta, 0, 1)
	srec.batchWall = []int64{0, 15e6}
	srec.outcomes[0] = outcome{n: 1, kind: outcomeAssigned, batch: 1, wall: 15.2e6}
	run := &serveRun{
		sess:    &serveSession{rec: srec},
		sends:   []sendRecord{{due: 1e6, sent: 1.5e6, acked: 2.5e6, result: sendAccepted, id: 0}},
		handler: &tracedHandler{start: []int64{1.8e6}, end: []int64{2.1e6}},
	}
	sts := run.stages()
	if len(sts) != 1 {
		t.Fatalf("%d serve orders staged, want 1", len(sts))
	}
	st := sts[0]
	if sum := st.ack + st.wait + st.decide; math.Abs(sum-st.assign) > 1e-9 {
		t.Errorf("serve stages sum to %v, want assign %v", sum, st.assign)
	}
	if sum := st.late + st.transport + st.handler; math.Abs(sum-st.ack) > 1e-9 || st.transport < 0 {
		t.Errorf("late %v + transport %v + handler %v = %v, want ack %v", st.late, st.transport, st.handler, sum, st.ack)
	}

	// A batch's traced parts sum to its interval; the critical lane of a
	// two-lane round sets the dispatch and roadnet parts.
	tr := newTracer(newClock())
	a, b := tr.lane(0), tr.lane(1)
	a.spans = []span{{kind: spanDispatch, batch: 0, start: 1.1e6, end: 1.3e6}, {kind: spanCosts, batch: 0, start: 1.3e6, end: 1.4e6}}
	b.spans = []span{{kind: spanQueueing, batch: 0, start: 1.1e6, end: 1.15e6}, {kind: spanDispatch, batch: 0, start: 1.2e6, end: 2.0e6},
		{kind: spanCosts, nested: true, batch: 0, start: 1.5e6, end: 1.7e6}}
	parts := tr.parts(rec)
	p := parts[0]
	if math.Abs(p.self+p.dispatch+p.roadnet+p.probe-p.interval) > 1e-9 || p.interval != 2 {
		t.Errorf("parts %+v do not sum to the 2ms interval", p)
	}
	if p.assign != 0.8 || p.dispatch != 0.6 || p.roadnet != 0.2 || p.probe != 0.05 {
		t.Errorf("critical lane parts = %+v, want lane 1's assign 0.8, dispatch 0.6, roadnet 0.2, probe 0.05", p)
	}
}

// TestCatalogueMatchesBenchmarkJSON pins the metric names, units and
// directions the binary prints to the ones BENCHMARK.json declares.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("BENCHMARK.json not beside the benchmark: %v", err)
	}
	type entry struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		json []entry
		code []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(tc.json) != len(tc.code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the binary %d", tc.name, len(tc.json), len(tc.code))
			continue
		}
		for i, d := range tc.code {
			if e := tc.json[i]; e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, binary %+v", tc.name, i, e, d)
			}
		}
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, binary %v", names, workloadNames())
	}
}

// TestTracedRunsPassTheirChecks runs small versions of both replay
// shapes and of the serve loop, traced, through every correctness check.
func TestTracedRunsPassTheirChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a forecaster per run")
	}
	cfg := runConfig{seed: 3, seconds: 1}
	for name, w := range map[string]replayWorkload{
		"single": {ordersPerDay: 3000, fleet: 60, alg: "IRG", from: 6 * 3600, to: 8 * 3600},
		"sharded-road-pool": {ordersPerDay: 3000, fleet: 60, alg: "POOL", from: 6 * 3600, to: 8 * 3600,
			shards: 2, poolCap: 2, road: true},
	} {
		rep, err := traceReplay(w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rep.problems) > 0 || rep.failed > 0 {
			t.Errorf("%s: failed %d, problems %v", name, rep.failed, rep.problems)
		}
		rep.metrics["host.ref_ms"] = 1 // main adds the host reference around the run
		if _, err := buildResult(rep, perLayer); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	w := serveSpec{fleet: 300, alg: "LS", rate: 100, batchWall: 15 * time.Millisecond, patience: 300, sessions: 1}
	rep, err := traceServe(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.problems) > 0 || rep.failed > 0 {
		t.Errorf("serve: failed %d, problems %v", rep.failed, rep.problems)
	}
	rep.metrics["host.ref_ms"] = 1
	if _, err := buildResult(rep, perLayer); err != nil {
		t.Error(err)
	}
}

var _ sim.Observer = (*recorder)(nil)
