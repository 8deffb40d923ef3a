// Command perfbench is the repository benchmark. It generates its data
// and, from one seed, its load inside a single process, drives gstored
// only through its public Go API and its HTTP endpoint, checks every
// answer against a width-1 in-process oracle, and prints one JSON
// result line.
//
//	perfbench --workload paper-engine|rpc-mixed --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics of an
// untraced run; with --trace 1 a separate traced run times the calls
// into each layer and reports the per-layer metrics. perfbench/run.sh
// builds and runs it; perfbench/README.md documents every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(r *runner) error{
	"paper-engine": paperEngine,
	"rpc-mixed":    rpcMixed,
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: paper-engine or rpc-mixed")
	seed := flag.Int64("seed", 1, "seed of the generated load")
	seconds := flag.Float64("seconds", 30, "measured seconds of the run")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer run, 0 the untraced end-to-end run")
	flag.Parse()
	drive, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload paper-engine|rpc-mixed --seed N --seconds S --trace 0|1\n")
		return 2
	}
	r := newRunner(*name, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err := drive(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	want := endToEnd
	if r.traced {
		want = perLayer
	}
	out := result{
		Correct:   r.wrong.Load() == 0,
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   map[string]metric{},
	}
	var missing []string
	for _, d := range want {
		v, ok := r.metrics[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %v\n", *name, missing)
		return 1
	}
	if out.Attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was attempted")
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d wrong answers\n", r.wrong.Load())
		return 1
	}
	return 0
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

// endToEnd lists the metrics of the untraced run, in BENCHMARK.json
// order. Every workload measures all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"selective_p50_ms", "ms"},
	{"selective_tail_ms", "ms"},
	{"unselective_p50_ms", "ms"},
	{"unselective_tail_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"read_tail_ms", "ms"},
	{"update_p50_ms", "ms"},
	{"update_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"max_ops_per_s", "1/s"},
	{"ship_kb_per_query", "KB"},
	{"mem_peak_mb", "MB"},
}

// perLayer lists the metrics of the traced run, in BENCHMARK.json
// order. Every workload measures all of them.
var perLayer = []metricDef{
	{"sparql.parse_us", "us"},
	{"query.canonical_key_us", "us"},
	{"store.index_ms", "ms"},
	{"partition.assign_ms", "ms"},
	{"fragment.build_ms", "ms"},
	{"remote.ship_fragments_ms", "ms"},
	{"store.match_ms", "ms"},
	{"store.local_matches", "count"},
	{"candidates.site_ms", "ms"},
	{"candidates.union_ms", "ms"},
	{"candidates.ship_kb", "KB"},
	{"candidates.pass_ratio", "ratio"},
	{"partial.compute_ms", "ms"},
	{"partial.busy_ms", "ms"},
	{"partial.lpm", "count"},
	{"partial.alloc_mb", "MB"},
	{"cluster.candidates_wall_ms", "ms"},
	{"cluster.partial_wall_ms", "ms"},
	{"cluster.site_skew", "ratio"},
	{"lec.compute_ms", "ms"},
	{"lec.prune_ms", "ms"},
	{"lec.features", "count"},
	{"lec.retained_ratio", "ratio"},
	{"lec.ship_kb", "KB"},
	{"assembly.assemble_ms", "ms"},
	{"assembly.join_attempts", "count"},
	{"assembly.yield", "ratio"},
	{"assembly.ship_kb", "KB"},
	{"assembly.alloc_mb", "MB"},
	{"engine.execute_ms", "ms"},
	{"engine.coordinator_ms", "ms"},
	{"engine.residual_ms", "ms"},
	{"server.round_trip_ms", "ms"},
	{"server.write_json_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.cache_hit_rate", "ratio"},
	{"server.evictions_per_op", "count"},
	{"server.coalesced_rate", "ratio"},
	{"remote.partial_rpc_ms", "ms"},
	{"remote.partial_local_ms", "ms"},
	{"remote.wire_kb_per_query", "KB"},
	{"remote.messages_per_query", "count"},
	{"gstored.update_ms", "ms"},
	{"store.apply_ms", "ms"},
	{"fragment.apply_delta_ms", "ms"},
	{"fragment.touched", "count"},
	{"gstored.swap_ms", "ms"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.heap_live_mb", "MB"},
	{"loadgen.late_tail_ms", "ms"},
	{"loadgen.backlog_peak", "count"},
	{"trace.overhead_pct", "%"},
	{"mode.basic.unselective_ms", "ms"},
	{"mode.la.unselective_ms", "ms"},
	{"mode.lo.unselective_ms", "ms"},
	{"mode.full.unselective_ms", "ms"},
	{"mode.basic.ship_kb", "KB"},
	{"mode.la.ship_kb", "KB"},
	{"mode.lo.ship_kb", "KB"},
	{"mode.full.ship_kb", "KB"},
}
