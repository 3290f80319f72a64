package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/index"
	"repro/internal/interaction"
)

// refChooseTop is chooseTop with the two-pass scorer it replaced, kept
// as the differential reference: a non-monitored candidate costs a
// Current and a CurrentPenalized call, each its own pass over the
// window; entries sort with sort.Slice, and the nested-family dedup scans
// all of D. It reads each candidate's history from hist, standalone
// windows holding the same observations as t.idxStats. It returns D and
// the sorted entries.
func refChooseTop(t *WFIT, hist map[index.ID]*interaction.Window) (index.Set, []scoredCandidate) {
	current := func(a index.ID) float64 {
		if w, ok := hist[a]; ok {
			return w.Current(t.n)
		}
		return 0
	}
	penalized := func(a index.ID, penalty float64) float64 {
		if w, ok := hist[a]; ok {
			return w.CurrentPenalized(t.n, penalty)
		}
		return -penalty
	}
	m := t.materialized.Intersect(t.universe).Union(t.activePins())
	budget := t.options.IdxCnt - m.Len()
	if budget < 0 {
		budget = 0
	}
	var entries []scoredCandidate
	t.universe.Each(func(a index.ID) {
		if m.Contains(a) {
			return
		}
		if t.partsetC.Contains(a) {
			entries = append(entries, scoredCandidate{a, current(a)})
			return
		}
		if current(a) <= 0 {
			return
		}
		entries = append(entries, scoredCandidate{a, penalized(a, t.reg.CreateCost(a))})
	})
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].score != entries[j].score {
			return entries[i].score > entries[j].score
		}
		return entries[i].id < entries[j].id
	})
	d := m
	taken := 0
	for _, entry := range entries {
		if taken >= budget {
			break
		}
		def := t.reg.Get(entry.id)
		redundant := false
		d.Each(func(chosen index.ID) {
			if index.Nested(def, t.reg.Get(chosen)) {
				redundant = true
			}
		})
		if !redundant {
			d = d.Add(entry.id)
			taken++
		}
	}
	return d, entries
}

// topCase is one random chooseTop input: a WFIT holding the state
// chooseTop reads, and a standalone copy of every benefit history.
type topCase struct {
	t    *WFIT
	hist map[index.ID]*interaction.Window
}

// randomTopCase builds a registry of random indices over a few tables and
// columns (so nested families are common), a universe of about
// universeSize of them, and random C, M, vote pins and benefit windows.
// Creation costs are 0, small, or far above any window's sum; some
// windows hold no observation, and some hold observations past the
// current position, whose denominators clamp to 1.
func randomTopCase(rng *rand.Rand, universeSize, idxCnt, histSize int) topCase {
	reg := index.NewRegistry()
	cols := []string{"a", "b", "c", "d", "e", "f"}
	for tries := 0; reg.Len() < universeSize+universeSize/4 && tries < 50*universeSize; tries++ {
		perm := rng.Perm(len(cols))
		key := make([]string, 1+rng.Intn(3))
		for x := range key {
			key[x] = cols[perm[x]]
		}
		reg.Intern(index.Index{
			Table:      string(rune('p' + rng.Intn(8))),
			Columns:    key,
			CreateCost: []float64{0, rng.Float64() * 20, 1e5 * (1 + rng.Float64())}[rng.Intn(3)],
		})
	}
	n := 20 + rng.Intn(300)
	t := &WFIT{
		reg:      reg,
		options:  Options{IdxCnt: idxCnt, HistSize: histSize},
		idxStats: interaction.NewBenefitStats(histSize),
		pinned:   make(map[index.ID]int),
		n:        n,
	}
	tc := topCase{t: t, hist: make(map[index.ID]*interaction.Window)}
	var universe, c, m []index.ID
	for id := index.ID(1); int(id) <= reg.Len(); id++ {
		if rng.Float64() < 0.8 {
			universe = append(universe, id)
			if rng.Float64() < 0.15 {
				c = append(c, id)
			}
		}
		if rng.Float64() < 0.05 {
			m = append(m, id)
		}
		if rng.Float64() < 0.05 {
			t.pinned[id] = n - rng.Intn(2*histSize+2)
		}
		if rng.Float64() < 0.2 {
			continue // no history
		}
		w := interaction.NewWindow(histSize)
		obs := rng.Intn(2*histSize + 3)
		pos := 1 + rng.Intn(n)
		for k := 0; k < obs; k++ {
			v := rng.ExpFloat64() * 30
			t.idxStats.Add(id, pos, v)
			w.Add(pos, v)
			pos += rng.Intn(3)
			pos = min(pos, n+3)
		}
		tc.hist[id] = w
	}
	t.universe = index.NewSet(universe...)
	t.partsetC = index.NewSet(c...)
	t.materialized = index.NewSet(m...)
	return tc
}

// TestChooseTopMatchesReference checks chooseTop, with its one-pass
// window scorer, against the two-pass reference on random universes:
// the same D, and the same sorted entries with Float64bits-equal scores.
// On every history it also checks Window.CurrentPair bit-for-bit against
// Current and CurrentPenalized, at penalty 0, the index's creation cost,
// and a penalty above the window's sum, and requires that the run met
// each edge case: an empty window, a penalty above the sum, and a
// denominator clamped to 1.
func TestChooseTopMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var emptyWindows, overSum, clamped int
	checkPair := func(w *interaction.Window, n int, penalty float64) {
		t.Helper()
		cur, pen := w.CurrentPair(n, penalty)
		wantCur, wantPen := w.Current(n), w.CurrentPenalized(n, penalty)
		if math.Float64bits(cur) != math.Float64bits(wantCur) || math.Float64bits(pen) != math.Float64bits(wantPen) {
			t.Fatalf("CurrentPair(%d, %v) = %v, %v; two passes give %v, %v", n, penalty, cur, pen, wantCur, wantPen)
		}
	}
	for _, penalty := range []float64{0, 3, -2} {
		checkPair(interaction.NewWindow(5), 7, penalty)
		emptyWindows++
	}
	for trial := 0; trial < 300; trial++ {
		histSize := []int{0, 3, 100}[rng.Intn(3)]
		universeSize := 1 + rng.Intn(150)
		tc := randomTopCase(rng, universeSize, rng.Intn(universeSize+8), histSize)
		wantD, wantEntries := refChooseTop(tc.t, tc.hist)
		gotD := tc.t.chooseTop()
		if !gotD.Equal(wantD) {
			t.Fatalf("trial %d: chooseTop = %v, reference %v", trial, gotD, wantD)
		}
		got := tc.t.scoreScratch
		if len(got) != len(wantEntries) {
			t.Fatalf("trial %d: %d scored entries, reference %d", trial, len(got), len(wantEntries))
		}
		for x, e := range wantEntries {
			if got[x].id != e.id || math.Float64bits(got[x].score) != math.Float64bits(e.score) {
				t.Fatalf("trial %d: entry %d = %+v, reference %+v", trial, x, got[x], e)
			}
		}
		for id, w := range tc.hist {
			sum := w.Total()
			if w.Len() == 0 {
				emptyWindows++
			} else if w.LastPos() > tc.t.n {
				clamped++
			}
			cost := tc.t.reg.CreateCost(id)
			if cost > sum {
				overSum++
			}
			for _, penalty := range []float64{0, cost, sum + 1} {
				checkPair(w, tc.t.n, penalty)
			}
		}
	}
	if emptyWindows < 4 || overSum == 0 || clamped == 0 {
		t.Fatalf("fixture missed an edge case: %d empty windows, %d penalties over the sum, %d clamped windows", emptyWindows, overSum, clamped)
	}
}

// BenchmarkChooseTop measures topIndices over a paper-scale universe:
// 300 candidates, idxCnt 40, histSize 100.
func BenchmarkChooseTop(b *testing.B) {
	tc := randomTopCase(rand.New(rand.NewSource(3)), 300, 40, 100)
	b.ReportAllocs()
	for b.Loop() {
		tc.t.chooseTop()
	}
}
