package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer: the benchmark records spans only
// around calls it makes itself, never inside the program. Spans of one
// statement (tune-*) or one HTTP request (serve-dba) share ID; Parent is
// the index of the enclosing span in the recorder, or -1.
type span struct {
	ID     int
	Name   string
	Parent int
	Start  time.Duration // since the recorder's epoch
	End    time.Duration
}

// recorder keeps spans in memory for the traced run; a nil *recorder
// records nothing, which is how the untraced run skips all of it. It is
// safe for concurrent use (serve-dba's two shippers share one).
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its index (-1 when disabled).
func (r *recorder) add(id int, name string, parent int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: id, Name: name, Parent: parent, Start: start.Sub(r.epoch), End: end.Sub(r.epoch)})
	return len(r.spans) - 1
}

// selfTimes sums, per span name, each span's duration minus the part its
// direct children cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range r.spans {
		out[s.Name] += s.End - s.Start - child[i]
	}
	return out
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(map[string]any{
			"id": s.ID, "name": s.Name, "parent": s.Parent,
			"start_ns": s.Start.Nanoseconds(), "end_ns": s.End.Nanoseconds(),
		}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place);
// 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return c[n/2]
	default:
		return (c[n/2-1] + c[n/2]) / 2
	}
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// check is one correctness check of a run.
type check struct {
	Name   string
	OK     bool
	Detail string
}

func checkEq[T comparable](name string, got, want T) check {
	if got == want {
		return check{Name: name, OK: true, Detail: fmt.Sprint(got)}
	}
	return check{Name: name, Detail: fmt.Sprintf("got %v, want %v", got, want)}
}

// exact is what every pass of a run must reproduce bit for bit, traced
// or not: tracing must not perturb a single decision.
type exact struct {
	TotalWork    uint64 // float64 bits
	Trajectory   string // digest of the recommendation trajectory
	WhatIfCalls  int64
	CappedStmts  int
	Repartitions int
}

func checkExact(pass int, traced bool, got, want exact) check {
	kind := "untraced"
	if traced {
		kind = "traced"
	}
	return checkEq(fmt.Sprintf("pass %d (%s) reproduces pass 1 exactly", pass, kind), got, want)
}

// liveHeap returns the bytes of live heap after forced collections; the
// second one also empties what sync.Pool victim caches kept through the
// first.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// enoughPasses reports whether a run that started at start may stop after
// n passes: once the measuring time is up, and not before an untraced run
// has run every slot of the run once, and at least three passes to take
// the median of (one pass disturbed by the host then cannot set a metric),
// or a traced run has one pass of each kind.
func enoughPasses(n int, traced bool, start time.Time, seconds float64) bool {
	min := max(3, slotsPerRun)
	if traced {
		min = 2
	}
	return n >= min && time.Since(start).Seconds() >= seconds
}

// slotsPerRun is how many input slots one run cycles its passes through.
// The tuner's decisions, and so the total work and the time they take,
// differ from one input to the next (total work by 6% IQR/median between
// single-slot runs of tune-write-heavy); a run that averages over several
// inputs varies that much less from seed to seed.
const slotsPerRun = 4

// runSlots returns the input slots of the run for seed: slotsPerRun
// distinct slots drawn from it, so that runs with nearby seeds share
// few inputs.
func runSlots(seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(inputSlots)[:slotsPerRun]
}

// passSlot returns the input slot of pass k. A traced run takes each slot
// twice in a row, untraced then traced, so that every traced pass has an
// untraced pass on the same input to reproduce and to be compared with.
func passSlot(slots []int, k int, traced bool) int {
	if traced {
		k /= 2
	}
	return slots[k%len(slots)]
}

// passInputs follows the input slots of one run's passes: it checks each
// slot's input against its pin when the slot is first used and every
// later pass's input against that, and every pass's exact outputs against
// the first pass on the same slot.
type passInputs struct {
	workload string
	sc       scale
	order    []int // slots in order of first use
	digests  map[int]string
	firsts   map[int]exact
}

func newPassInputs(workload string, sc scale) *passInputs {
	return &passInputs{workload: workload, sc: sc, digests: map[int]string{}, firsts: map[int]exact{}}
}

// input checks the digest of the input that pass (1-based) runs on slot.
func (pi *passInputs) input(res *result, pass, slot int, digest string) {
	want, seen := pi.digests[slot]
	switch {
	case !seen:
		pi.order = append(pi.order, slot)
		pi.digests[slot] = digest
		res.checks = append(res.checks, checkDigest(pinKey(pi.workload, pi.sc, slot), digest))
	case digest != want:
		res.checks = append(res.checks, check{Name: "input regenerates identically",
			Detail: fmt.Sprintf("pass %d slot %d digest %s, first %s", pass, slot, digest, want)})
	}
}

// output checks a pass's exact outputs against the first pass on slot.
func (pi *passInputs) output(res *result, pass, slot int, traced bool, got exact) {
	if want, ok := pi.firsts[slot]; ok {
		res.checks = append(res.checks, checkExact(pass, traced, got, want))
		return
	}
	pi.firsts[slot] = got
}

// totalWork returns the mean total work over the slots the run used, in
// order of first use, and how many there were.
func (pi *passInputs) totalWork() (float64, int) {
	var xs []float64
	for _, slot := range pi.order {
		if e, ok := pi.firsts[slot]; ok {
			xs = append(xs, math.Float64frombits(e.TotalWork))
		}
	}
	return mean(xs), len(xs)
}

// digest lists the input digest of every slot the run used.
func (pi *passInputs) digest() string {
	var parts []string
	for _, slot := range pi.order {
		parts = append(parts, fmt.Sprintf("slot %d %s", slot, pi.digests[slot]))
	}
	return strings.Join(parts, ", ")
}

// cpuTicks returns the CPU time the hypervisor stole from this machine and
// the total, in clock ticks since boot, from /proc/stat (ok is false
// where that file is missing).
func cpuTicks() (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}
