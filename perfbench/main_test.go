package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datagen"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests hold the
// benchmark to.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []def `json:"end_to_end"`
	PerLayer []def `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// resultLine is the JSON object the benchmark prints last.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func run(t *testing.T, workload string, traced bool) (*result, resultLine) {
	t.Helper()
	dir := t.TempDir()
	var res *result
	var err error
	if workload == "serve-dba" {
		res, err = runServe([]int{testSlot}, small, 0.01, traced, dir, filepath.Join(dir, "spans.jsonl"))
	} else {
		res, err = runTune(workload, []int{testSlot}, small, 0.01, traced, filepath.Join(dir, "spans.jsonl"))
	}
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	res.seal(traced)
	var buf bytes.Buffer
	emit(&buf, res, traced)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	last := lines[len(lines)-1]
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &keys); err != nil {
		t.Fatalf("%s: last line is not JSON: %v\n%s", workload, err, last)
	}
	if len(keys) != 4 {
		t.Errorf("%s: result line has keys %v, want correct, attempted, failed, metrics", workload, keys)
	}
	var line resultLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		t.Fatal(err)
	}
	if traced {
		if fi, err := os.Stat(filepath.Join(dir, "spans.jsonl")); err != nil || fi.Size() == 0 {
			t.Errorf("%s: traced run wrote no spans: %v", workload, err)
		}
	}
	return res, line
}

// TestReducedScaleEmitsEveryMetric runs every workload at the reduced
// scale, untraced and traced, and checks that each metric BENCHMARK.json
// names comes out with its unit, and that the run's checks pass.
func TestReducedScaleEmitsEveryMetric(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, line := run(t, w, traced)
			for _, c := range res.checks {
				if !c.OK {
					t.Errorf("%s traced=%v: check %s failed: %s", w, traced, c.Name, c.Detail)
				}
			}
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, line.Correct, line.Attempted, line.Failed)
			}
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w, traced, len(line.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := line.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w, traced, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s traced=%v: metric %s unit %q, want %q", w, traced, d.Name, m.Unit, d.Unit)
				case !traced && !(m.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.Name, m.Value)
				}
			}
		}
	}
}

// TestDigestCheckRejectsChangedInput feeds the pin check inputs that
// differ from the pinned ones by one statement or one vote.
func TestDigestCheckRejectsChangedInput(t *testing.T) {
	cat, joins := datagen.Build()
	for _, w := range []string{"tune-adhoc", "tune-write-heavy"} {
		in := genTune(cat, joins, w, testSlot, small)
		key := pinKey(w, small, testSlot)
		if c := checkDigest(key, in.digest(w, testSlot)); !c.OK {
			t.Fatalf("%s: pinned input rejected: %s", w, c.Detail)
		}
		in.SQL[3] = strings.Replace(in.SQL[3], "t0", "t1", 1)
		if c := checkDigest(key, in.digest(w, testSlot)); c.OK {
			t.Errorf("%s: changed statement passed the pin check", w)
		}
	}
	in := genServe(cat, joins, testSlot, small)
	key := pinKey("serve-dba", small, testSlot)
	if c := checkDigest(key, in.digest(testSlot, small)); !c.OK {
		t.Fatalf("serve-dba: pinned input rejected: %s", c.Detail)
	}
	in.Votes[1][0].After++
	if c := checkDigest(key, in.digest(testSlot, small)); c.OK {
		t.Error("serve-dba: changed DBA schedule passed the pin check")
	}
	if c := checkDigest(pinKey("serve-dba", small, inputSlots), "x"); c.OK {
		t.Error("a digest with nothing pinned passed the pin check")
	}
}

// TestExactCheckRejectsDifferentTotalWork replays a tune pass and checks
// that the cross-pass comparison accepts the replay and rejects a total
// work one ulp off or a different trajectory.
func TestExactCheckRejectsDifferentTotalWork(t *testing.T) {
	var passes []*tunePass
	for i := 0; i < 2; i++ {
		env, err := setupTune("tune-adhoc", testSlot, small)
		if err != nil {
			t.Fatal(err)
		}
		passes = append(passes, runTunePass(env, nil, 0))
	}
	want := passes[0].exact()
	if c := checkExact(2, false, passes[1].exact(), want); !c.OK {
		t.Fatalf("replayed pass differs: %s", c.Detail)
	}
	off := passes[1].exact()
	off.TotalWork = math.Float64bits(math.Nextafter(passes[1].totalWork, math.Inf(1)))
	if c := checkExact(2, false, off, want); c.OK {
		t.Error("total_work one ulp off passed the exact check")
	}
	off = passes[1].exact()
	off.Trajectory = "0"
	if c := checkExact(2, true, off, want); c.OK {
		t.Error("a different trajectory passed the exact check")
	}
}

// TestRecoveryCheckRejectsWrongState kills a served pass and checks the
// recovered sessions against their real pre-kill state (s1) and against a
// total work that differs from it (s0).
func TestRecoveryCheckRejectsWrongState(t *testing.T) {
	e, err := setupServe(testSlot, small, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := runServePass(e, small, false)
	if err != nil {
		t.Fatal(err)
	}
	want := p.final
	want[0].TotalWork += 1
	checks, err := killAndRecover(e, want)
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) != 2 || checks[0].OK || !checks[1].OK {
		t.Errorf("recovery checks = %+v, want s0 rejected and s1 accepted", checks)
	}
}

// TestSealRejectsFailuresAndNonFiniteMetrics checks that a run with a
// failed operation, or with a metric that is not a finite number (a
// failed request times as +Inf), is not correct, and that such a metric
// never goes out as a number.
func TestSealRejectsFailuresAndNonFiniteMetrics(t *testing.T) {
	ok := func() *result {
		r := newResult("tune-adhoc")
		r.checks = []check{{Name: "input", OK: true}}
		r.attempted = 10
		for _, d := range endToEnd {
			r.setE2E(d.Name, 1, 1)
		}
		return r
	}
	r := ok()
	r.seal(false)
	if !r.correct() {
		t.Fatalf("a clean run failed: %+v", r.checks)
	}
	r = ok()
	r.failed = 1
	r.seal(false)
	if r.correct() {
		t.Error("a run with a failed operation passed")
	}
	r = ok()
	r.setE2E("stmt_p99_us", math.Inf(1), 1)
	r.seal(false)
	if r.correct() {
		t.Error("a run with an infinite stmt_p99_us passed")
	}
	var buf bytes.Buffer
	emit(&buf, r, false)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var line struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value *float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if line.Correct || line.Metrics["stmt_p99_us"].Value != nil {
		t.Errorf("infinite metric printed as correct=%v value=%v, want false and null", line.Correct, line.Metrics["stmt_p99_us"].Value)
	}
}

// TestRunSlotsAndPassInputs checks how a run spreads its passes over
// input slots: the seed fixes the slots, a traced run pairs an untraced
// and a traced pass on each slot, every pass is held to the first pass on
// its own slot, and total work is the mean over the slots.
func TestRunSlotsAndPassInputs(t *testing.T) {
	slots := runSlots(7)
	if fmt.Sprint(slots) != fmt.Sprint(runSlots(7)) || len(slots) != slotsPerRun {
		t.Fatalf("runSlots(7) = %v, not a fixed set of %d", slots, slotsPerRun)
	}
	seen := map[int]bool{}
	for _, s := range slots {
		if s < 0 || s >= inputSlots || seen[s] {
			t.Fatalf("runSlots(7) = %v, want %d distinct slots in [0, %d)", slots, slotsPerRun, inputSlots)
		}
		seen[s] = true
	}
	for k := 0; k < 2*slotsPerRun; k += 2 {
		if passSlot(slots, k, true) != passSlot(slots, k+1, true) {
			t.Errorf("traced run: passes %d and %d on different slots", k+1, k+2)
		}
	}

	res := newResult("tune-adhoc")
	in := newPassInputs("tune-adhoc", full)
	for k, slot := range slots[:2] {
		in.input(newResult("tune-adhoc"), k+1, slot, "d") // digest checks are TestDigestCheckRejectsChangedInput's
	}
	a := exact{TotalWork: math.Float64bits(100), Trajectory: "a"}
	b := exact{TotalWork: math.Float64bits(300), Trajectory: "b"}
	in.output(res, 1, slots[0], false, a)
	in.output(res, 2, slots[1], false, b)
	in.output(res, 3, slots[0], true, a)
	in.output(res, 4, slots[1], false, a)
	if len(res.checks) != 2 || !res.checks[0].OK || res.checks[1].OK {
		t.Errorf("checks = %+v, want pass 3 accepted and pass 4 (slot 1 with slot 0's outputs) rejected", res.checks)
	}
	if w, n := in.totalWork(); w != 200 || n != 2 {
		t.Errorf("total work = %v over %d slots, want 200 over 2", w, n)
	}
}
