// Command wfitperf is the repository's benchmark. It drives the WFIT
// tuner from outside, through the calls a deployment makes: an in-process
// tune loop over tuner.Engine (tune-adhoc, tune-write-heavy) and an
// in-process wfit-serve behind a loopback HTTP listener (serve-dba). It
// prints every end-to-end metric by name with its unit, checks the
// program's outputs, and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics of
// BENCHMARK.json; with --trace 1 they are its per-layer metrics, taken
// from traced passes that record a span around every layer call. See
// README.md for the workloads, the metrics and what each layer metric
// should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

var workloadNames = []string{"tune-adhoc", "tune-write-heavy", "serve-dba"}

// def names a metric and its unit.
type def struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// endToEnd is the gated set: every workload emits each of them (see
// README.md for what each means on each workload).
var endToEnd = []def{
	{"stmt_p50_us", "us"},
	{"stmt_p99_us", "us"},
	{"stmts_per_s", "stmt/s"},
	{"total_work", "cost"},
	{"alloc_bytes_per_stmt", "B"},
	{"live_heap_mb", "MB"},
	{"setup_s", "s"},
}

// workloadOnly are end-to-end metrics that exist on some workloads only;
// they are printed in the table but are not part of the JSON line.
var workloadOnly = []def{
	{"wide_p50_ms", "ms"},
	{"ack_p50_us.light", "us"},
	{"ack_p99_us.light", "us"},
	{"ack_p50_us.busy", "us"},
	{"ack_p99_us.busy", "us"},
	{"sustained_stmts_per_s", "stmt/s"},
	{"failed_frac", "ratio"},
}

// perLayer is the traced run's set; a layer the workload does
// not call reads 0 with n=0.
var perLayer = []def{
	{"sqlmini.parse_us.p50", "us"},
	{"sqlmini.parse_ms.total", "ms"},
	{"core.analyze_us.p50", "us"},
	{"core.analyze_us.p99", "us"},
	{"core.run_ms.total", "ms"},
	{"core.finish_ms.total", "ms"},
	{"core.run_share", "ratio"},
	{"core.recommend_us.p50", "us"},
	{"core.adopt_us.p50", "us"},
	{"core.repartitions", "count"},
	{"core.universe_size", "count"},
	{"core.states", "count"},
	{"ibg.nodes.p50", "count"},
	{"ibg.nodes.p99", "count"},
	{"ibg.capped_stmts", "count"},
	{"whatif.calls", "count"},
	{"cost.price_us.p50", "us"},
	{"server.http_us.p50", "us"},
	{"server.queue_us.mean", "us"},
	{"server.analysis_ms.total", "ms"},
	{"server.apply_ms.total", "ms"},
	{"state.wal_append_us.mean", "us"},
	{"state.fsync_us.mean", "us"},
	{"state.records_per_commit", "records"},
	{"state.checkpoints", "count"},
	{"state.checkpoint_ms.mean", "ms"},
	{"state.snapshot_bytes", "B"},
	{"obs.overhead_pct", "%"},
	{"obs.span_coverage_pct", "%"},
	{"loadgen.late_us.p99", "us"},
}

// value is one measured metric with its sample count.
type value struct {
	V float64
	N int
}

// result is one run's outcome.
type result struct {
	workload          string
	digest            string
	e2e, layer        map[string]value
	checks            []check
	attempted, failed int64
	notes             []string
}

func newResult(w string) *result {
	return &result{workload: w, e2e: map[string]value{}, layer: map[string]value{}}
}

func (r *result) setE2E(name string, v float64, n int)   { r.e2e[name] = value{v, n} }
func (r *result) setLayer(name string, v float64, n int) { r.layer[name] = value{v, n} }

func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return len(r.checks) > 0
}

// seal adds the checks every run must pass besides its workload's own:
// no operation failed, and every metric of the JSON line is a finite
// number. A failed request is timed as +Inf, so a run with failures can
// never read as a fast one.
func (r *result) seal(traced bool) {
	r.checks = append(r.checks, checkEq("no operation failed", r.failed, int64(0)))
	set, defs := r.e2e, endToEnd
	if traced {
		set, defs = r.layer, perLayer
	}
	for _, d := range defs {
		if v := set[d.Name].V; math.IsNaN(v) || math.IsInf(v, 0) {
			r.checks = append(r.checks, check{Name: "metric " + d.Name + " is finite", Detail: fmt.Sprint(v)})
		}
	}
}

// checkDigest compares an input digest with the one pinned in digests.json.
func checkDigest(key, got string) check {
	want := pinned(key)
	if want == "" {
		return check{Name: "input digest pinned", Detail: "no digest recorded for " + key}
	}
	return checkEq("input digest pinned ("+key+")", got, want)
}

// emit prints the human-readable report and the JSON result line.
func emit(w io.Writer, r *result, traced bool) {
	for _, c := range r.checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "# check %s %s: %s\n", status, c.Name, c.Detail)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	row := func(d def, v value, ok bool) {
		if !ok {
			fmt.Fprintf(w, "%-26s %14s %-7s (not measured on %s)\n", d.Name, "-", d.Unit, r.workload)
			return
		}
		fmt.Fprintf(w, "%-26s %14.4f %-7s n=%d\n", d.Name, v.V, d.Unit, v.N)
	}
	// A traced run prints no end-to-end table: those numbers come from
	// untraced runs only, and a traced run may not reach every input slot.
	set, defs, table, title := r.e2e, endToEnd, append(append([]def(nil), endToEnd...), workloadOnly...), "end-to-end"
	if traced {
		set, defs, table, title = r.layer, perLayer, perLayer, "per-layer (traced passes)"
	}
	fmt.Fprintln(w, "# "+title)
	for _, d := range table {
		v, ok := set[d.Name]
		row(d, v, ok)
	}
	metrics := map[string]any{}
	for _, d := range defs {
		// JSON has no NaN or Inf: such a value goes out as null, and seal
		// has already failed the run for it.
		x := set[d.Name].V
		var v any = x
		if math.IsNaN(x) || math.IsInf(x, 0) {
			v = nil
		}
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	out, _ := json.Marshal(map[string]any{
		"correct":   r.correct(),
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
	fmt.Fprintln(w, string(out))
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or all")
	seed := flag.Int64("seed", 1, "input seed (picks the run's pinned input slots)")
	seconds := flag.Float64("seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file")
	dir := flag.String("dir", ".bench_build", "directory for spans and serve-dba data")
	pin := flag.Bool("pin", false, "print digests.json for the current workload generator and exit")
	flag.Parse()
	if *pin {
		if _, err := os.Stdout.Write(writePins()); err != nil {
			fmt.Fprintln(os.Stderr, "wfitperf:", err)
			os.Exit(2)
		}
		return
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	valid := true
	for _, n := range names {
		valid = valid && slices.Contains(workloadNames, n)
	}
	if !valid || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "wfitperf: need --workload (%s|all), --trace 0|1, --seconds > 0\n", strings.Join(workloadNames, "|"))
		os.Exit(2)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "wfitperf:", err)
		os.Exit(2)
	}
	failed := false
	for _, n := range names {
		if !runOne(n, *seed, *seconds, *trace == 1, *dir) {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// runOne runs one workload and prints its report; it reports whether
// every check passed.
func runOne(name string, seed int64, seconds float64, traced bool, dir string) bool {
	slots := runSlots(seed)
	spans := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", name, seed))
	fmt.Printf("# wfitperf workload=%s seed=%d input_slots=%v seconds=%g traced=%v\n", name, seed, slots, seconds, traced)
	fmt.Printf("# env nproc=%d gomaxprocs=%d go=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	steal0, total0, stealOK := cpuTicks()
	var res *result
	var err error
	if name == "serve-dba" {
		res, err = runServe(slots, full, seconds, traced, dir, spans)
	} else {
		res, err = runTune(name, slots, full, seconds, traced, spans)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wfitperf:", err)
		os.Exit(2)
	}
	// Time the hypervisor gives other machines shows up as latency here;
	// the share is printed so a reader can tell a disturbed run.
	if steal1, total1, ok := cpuTicks(); ok && stealOK && total1 > total0 {
		fmt.Printf("# host steal %.1f%% of CPU time during the run\n", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	fmt.Printf("# input digests: %s\n", res.digest)
	if traced {
		fmt.Printf("# spans written to %s\n", spans)
	}
	res.seal(traced)
	emit(os.Stdout, res, traced)
	return res.correct()
}
