// Command perfbench is mrvd's benchmark. It drives the system from
// outside through its public entry points — core.Runner.Run,
// Runner.ShardSession → shard.Runtime.Run, and mrvd.Service with the
// internal/server gateway over loopback HTTP — checks the outputs, and
// prints one JSON result line:
//
//	perfbench --workload replay-city --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run; --trace
// 1 makes a traced run that reports the per-layer metrics and writes
// its spans under --spans. See README.md for the metric catalogue.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricDef is one catalogue entry; the catalogue must match
// BENCHMARK.json (TestCatalogueMatchesBenchmarkJSON).
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics of an untraced run, reported on every
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"orders_per_s", "1/s", "higher"},
	{"batch_ms_p50", "ms", "lower"},
	{"batch_ms_p99", "ms", "lower"},
	{"assign_ms_p50", "ms", "lower"},
	{"ack_ms_p50", "ms", "lower"},
	{"served_share", "ratio", "higher"},
	{"revenue_per_order", "s", "higher"},
	{"allocs_per_order", "count", "lower"},
	{"alloc_bytes_per_order", "B", "lower"},
	{"live_heap_mb", "MB", "lower"},
}

// perLayer are the metrics of a traced run. A metric that does not
// apply to a workload (a gateway timing on a replay) reads 0.
var perLayer = []metricDef{
	{"core.instance_s", "s", "lower"},
	{"predict.train_s", "s", "lower"},
	{"mrvd.ready_s", "s", "lower"},
	{"sim.cycle_self_ms_p50", "ms", "lower"},
	{"sim.cycle_self_ms_p99", "ms", "lower"},
	{"sim.allocs_per_batch", "count", "lower"},
	{"sim.riders_per_batch", "count", "lower"},
	{"sim.drivers_per_batch", "count", "higher"},
	{"sim.pairs_per_batch", "count", "lower"},
	{"dispatch.assign_ms_p50", "ms", "lower"},
	{"dispatch.assign_ms_p99", "ms", "lower"},
	{"dispatch.busy_share", "ratio", "lower"},
	{"dispatch.assigned_per_rider", "ratio", "higher"},
	{"queueing.et_us_per_batch", "us", "lower"},
	{"roadnet.costs_ms_per_batch", "ms", "lower"},
	{"roadnet.costs_calls_per_batch", "count", "lower"},
	{"roadnet.cells_per_call", "count", "lower"},
	{"roadnet.pair_calls_per_batch", "count", "lower"},
	{"roadnet.settled_per_order", "count", "lower"},
	{"roadnet.cache_hit_ratio", "ratio", "higher"},
	{"roadnet.busy_share", "ratio", "lower"},
	{"pool.options_per_batch", "count", "higher"},
	{"pool.shared_share", "ratio", "higher"},
	{"shard.imbalance", "ratio", "lower"},
	{"shard.rehomed_per_round", "count", "lower"},
	{"load.late_ms_p50", "ms", "lower"},
	{"load.late_ms_p99", "ms", "lower"},
	{"server.handler_ms_p50", "ms", "lower"},
	{"server.handler_ms_p99", "ms", "lower"},
	{"server.transport_ms_p50", "ms", "lower"},
	{"mrvd.wait_ms_p50", "ms", "lower"},
	{"mrvd.wait_ms_p99", "ms", "lower"},
	{"sim.decide_ms_p50", "ms", "lower"},
	{"sim.decide_ms_p99", "ms", "lower"},
	{"sim.pace_lag_ms_p99", "ms", "lower"},
	{"mrvd.inflight_max", "count", "lower"},
	{"gc.cycles", "count", "lower"},
	{"gc.pause_ms_total", "ms", "lower"},
	{"trace.overhead", "ratio", "higher"},
	{"host.ref_ms", "ms", "lower"},
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	run, trace func(runConfig) (*report, error)
}{
	"replay-city": {
		run:   func(c runConfig) (*report, error) { return runReplay(replayCityWorkload, c) },
		trace: func(c runConfig) (*report, error) { return traceReplay(replayCityWorkload, c) },
	},
	"replay-road-pool": {
		run:   func(c runConfig) (*report, error) { return runReplay(replayRoadPoolWorkload, c) },
		trace: func(c runConfig) (*report, error) { return traceReplay(replayRoadPoolWorkload, c) },
	},
	"serve-http": {
		run:   func(c runConfig) (*report, error) { return runServe(serveWorkload, c) },
		trace: func(c runConfig) (*report, error) { return traceServe(serveWorkload, c) },
	},
}

// replayCityWorkload is the paper's pipeline on the closed-form coster:
// the NYC-like day at half paper scale, 1,500 drivers, IRG. Most of its
// time is engine work (candidate search, context build, dispatch).
var replayCityWorkload = replayWorkload{
	ordersPerDay: paperOrdersPerDay / 2, fleet: 1500, alg: "IRG", from: 0, to: 24 * 3600,
}

// replayRoadPoolWorkload prices travel on the road network with pooling
// on two shards, 06:00-20:00 of a 28K-orders/day city: most of its time
// is roadnet costing.
var replayRoadPoolWorkload = replayWorkload{
	ordersPerDay: 28000, fleet: 300, alg: "POOL", from: 6 * 3600, to: 20 * 3600,
	shards: 2, poolCap: 2, road: true,
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64
}

// report is what a workload run hands back to main.
type report struct {
	attempted, failed int64
	metrics           map[string]float64
	problems          []string // failed correctness checks
	notes             []string // diagnostics printed to stderr
	spans             func(path string) error
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed")
	secs := fs.Int("seconds", 30, "measured seconds per run")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	spans := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *secs < 1 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: float64(*secs)}

	refStart := hostRefMS()
	runFn, catalogue := w.run, endToEnd
	if *traced == 1 {
		runFn, catalogue = w.trace, perLayer
	}
	rep, err := runFn(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	refEnd := hostRefMS()
	fmt.Fprintf(os.Stderr, "host.ref_ms start=%.3f end=%.3f\n", refStart, refEnd)
	if *traced == 1 {
		rep.metrics["host.ref_ms"] = (refStart + refEnd) / 2
		if rep.spans != nil {
			path := filepath.Join(*spans, fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
			if err := rep.spans(path); err != nil {
				rep.problems = append(rep.problems, fmt.Sprintf("writing spans: %v", err))
			} else {
				fmt.Fprintf(os.Stderr, "spans written to %s\n", path)
			}
		}
	}
	for _, n := range rep.notes {
		fmt.Fprintln(os.Stderr, n)
	}

	out, err := buildResult(rep, catalogue)
	if err != nil {
		rep.problems = append(rep.problems, err.Error())
	}
	out.Correct = len(rep.problems) == 0
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "CHECK FAILED: %s\n", p)
	}
	printTable(out, catalogue)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// buildResult maps a report onto the catalogue: every catalogue metric
// must be present and finite, and nothing else may be.
func buildResult(rep *report, catalogue []metricDef) (resultOut, error) {
	out := resultOut{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricOut{}}
	var errs []error
	for _, d := range catalogue {
		v, ok := rep.metrics[d.name]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("metric %s missing", d.name))
			v = 0
		case math.IsNaN(v) || math.IsInf(v, 0):
			errs = append(errs, fmt.Errorf("metric %s is %v", d.name, v))
			v = 0
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	for k := range rep.metrics {
		if _, ok := out.Metrics[k]; !ok {
			errs = append(errs, fmt.Errorf("metric %s is not in the catalogue", k))
		}
	}
	if out.Attempted < 1 {
		errs = append(errs, errors.New("no attempted operations"))
	}
	return out, errors.Join(errs...)
}

// printTable writes the metrics by name with their units to stderr.
func printTable(out resultOut, catalogue []metricDef) {
	fmt.Fprintf(os.Stderr, "correct=%v attempted=%d failed=%d (failed_share %.6f)\n",
		out.Correct, out.Attempted, out.Failed, ratio(float64(out.Failed), float64(out.Attempted)))
	for _, d := range catalogue {
		fmt.Fprintf(os.Stderr, "  %-32s %16.6f %s\n", d.name, out.Metrics[d.name].Value, d.unit)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
