// Command perfbench is the disttrack benchmark. It generates one of four
// workloads from a seed, drives the tracker only through its public entry
// points (the disttrack facade, and internal/serve on a loopback
// listener), checks every answer against an exact oracle of its own, and
// prints every metric by name with its unit. The last line of standard
// output is the result record:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced.
// With --trace 1 a separate run records spans at each layer seam and
// replays the workload's input on a ladder of hand-mounted stacks, and the
// metrics are the per-layer ones. A full record with provenance, sample
// counts and per-pass values is written under --dir. The process exits 1
// when a correctness gate fails. See README.md for the workloads and the
// metric → layer → workload map.
//
// Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload rank-seq --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// metricSpec names a reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, reported on every
// workload. BENCHMARK.json declares the same names and units
// (TestCatalogMatchesBenchmarkJSON).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"elems_per_s", "1/s"},
	{"words_per_kelem", "words"},
	{"msgs_per_kelem", "msgs"},
	{"eps_ok_frac", "frac"},
	{"ok_frac", "frac"},
	{"alloc_bytes_per_elem", "B"},
	{"heap_inuse_mb", "MB"},
}

// ladderRungs are the hand-mounted stacks of the layer ladder, bottom up.
var ladderRungs = []string{"proto", "sim", "runtime", "tcp", "persist", "ingest", "tree", "disttrack"}

// perLayer lists the metrics of a traced run. A layer that a workload's
// stack does not contain reads 0 there. The latency.* metrics are
// end-to-end latencies that no bound can hold on a shared 2-vCPU host (see
// README.md); they are measured on every run but gated on none.
var perLayer = append([]metricSpec{
	{"latency.query_p50_us", "us"},
	{"latency.query_tail_us", "us"},
	{"latency.observe_p50_us", "us"},
	{"latency.observe_tail_us", "us"},
	{"proto.arrive_ns_per_elem", "ns"},
	{"proto.receive_ns_per_msg", "ns"},
	{"proto.allocs_per_elem", "allocs"},
	{"proto.site_words_max", "words"},
	{"proto.coord_words_max", "words"},
	{"sim.self_ns_per_elem", "ns"},
	{"runtime.self_ns_per_elem", "ns"},
	{"runtime.msgs_up_per_kelem", "msgs"},
	{"runtime.msgs_down_per_kelem", "msgs"},
	{"runtime.broadcasts_per_kelem", "count"},
	{"tcp.self_ns_per_elem", "ns"},
	{"tree.self_ns_per_elem", "ns"},
	{"tree.root_msgs_per_kelem", "msgs"},
	{"tree.leaf_msgs_per_kelem", "msgs"},
	{"tree.allocs_per_elem", "allocs"},
	{"ingest.observe_ns_per_elem", "ns"},
	{"ingest.flush_ms_p99", "ms"},
	{"ingest.query_wait_us_p99", "us"},
	{"ingest.dropped", "count"},
	{"persist.append_per_kelem", "count"},
	{"persist.append_bytes_per_elem", "B"},
	{"persist.append_us_p50", "us"},
	{"persist.append_us_p99", "us"},
	{"persist.busy_frac", "frac"},
	{"persist.snapshots", "count"},
	{"persist.snapshot_ms_p99", "ms"},
	{"persist.sync_ms", "ms"},
	{"serve.requests", "count"},
	{"serve.non2xx", "count"},
	{"serve.handler_self_us_p50", "us"},
	{"serve.handler_self_us_p99", "us"},
	{"serve.backend_us_p50", "us"},
	{"serve.backend_us_p99", "us"},
	{"disttrack.self_ns_per_elem", "ns"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.sent_per_s", "1/s"},
	{"loadgen.max_ok_rps", "1/s"},
	{"loadgen.request_self_us_p50", "us"},
	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},
	{"trace.overhead_frac", "frac"},
}, rungSpecs()...)

func rungSpecs() []metricSpec {
	var out []metricSpec
	for _, r := range ladderRungs {
		out = append(out,
			metricSpec{"ladder." + r + ".ns_per_elem", "ns"},
			metricSpec{"ladder." + r + ".allocs_per_elem", "allocs"},
			metricSpec{"ladder." + r + ".words_per_elem", "words"},
			metricSpec{"ladder." + r + ".delta_ns_per_elem", "ns"})
	}
	return out
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env is one benchmark invocation.
type env struct {
	name    string
	seed    uint64
	seconds float64
	trace   bool
	dir     string // output and scratch directory inside the checkout
	tmp     string // scratch for stores; removed at exit

	vals       map[string]float64
	details    map[string]any
	violations []string
	attempted  int64
	failed     int64
}

func (e *env) set(name string, v float64) { e.vals[name] = v }

// detail records supporting data for the full result record.
func (e *env) detail(name string, v any) { e.details[name] = v }

// violate records a failed correctness gate.
func (e *env) violate(format string, args ...any) {
	e.violations = append(e.violations, fmt.Sprintf(format, args...))
}

// workload is one benchmark input set and the stack it runs on.
type workload struct {
	name   string
	why    string
	params map[string]any
	run    func(e *env)
}

var workloads = []workload{rankSeq, freqDetWAL, countHTTP, countTree}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured run length in seconds")
	trace := flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	dir := flag.String("dir", ".bench_build/perfbench", "directory for result records and scratch files")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {rank-seq|freq-det-wal|count-http|count-tree} --seed N --seconds S --trace {0|1}\n")
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	tmp, err := os.MkdirTemp(*dir, "tmp-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(tmp)
	e := &env{name: w.name, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: *dir, tmp: tmp,
		vals: map[string]float64{}, details: map[string]any{}}
	prov := collectProvenance(e, w)
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%d\n", w.name, e.seed, e.seconds, *trace)
	began := time.Now()
	w.run(e)

	specs := endToEnd
	if e.trace {
		specs = perLayer
	}
	res := result{Attempted: e.attempted, Failed: e.failed, Metrics: map[string]metric{}}
	if res.Attempted < 1 {
		res.Attempted = 1
		e.violate("nothing was attempted")
	}
	for _, s := range specs {
		v, ok := e.vals[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			e.violate("metric %s is not a number (%v)", s.name, v)
			v = 0
		}
		// Every end-to-end metric measures something a working run always
		// does, so a missing or non-positive one is a broken run.
		if !e.trace && (!ok || v <= 0) {
			e.violate("metric %s was not measured (%v)", s.name, v)
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
		fmt.Printf("  %-36s %14.6g %s\n", s.name, v, s.unit)
	}
	// The other mode's metrics this run measured as well, such as the
	// latencies of an end-to-end run, are printed but not in the result.
	others := perLayer
	if e.trace {
		others = endToEnd
	}
	for _, s := range others {
		if v, ok := e.vals[s.name]; ok {
			fmt.Printf("  %-36s %14.6g %s (not gated in this mode)\n", s.name, v, s.unit)
		}
	}
	res.Correct = len(e.violations) == 0
	for _, v := range e.violations {
		fmt.Printf("GATE FAILED: %s\n", v)
	}
	record := map[string]any{
		"provenance": prov, "result": res, "details": e.details, "violations": e.violations,
		"wall_s": time.Since(began).Seconds(),
	}
	stem := fmt.Sprintf("%s-seed%d-trace%d", w.name, e.seed, *trace)
	if err := writeJSON(filepath.Join(e.dir, stem+".json"), record); err != nil {
		fmt.Fprintln(os.Stderr, "writing record:", err)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
