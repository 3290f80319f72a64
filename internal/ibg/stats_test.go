package ibg

import (
	"math"
	"sort"
	"testing"

	"repro/internal/cost"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/whatif"
)

// The oracle below is the per-index and per-pair enumeration Stats
// replaced: each statistic maximizes over the whole context pool on its
// own, probing every term through CostMask. It is kept verbatim in
// semantics — same contexts, same expression order, same -Inf and 0
// starting points — so Stats must reproduce it bit for bit.

// oracleContexts visits the context pool of a used-index set: every
// submask of rest when the used union fits exactEnumBits, otherwise each
// node's configuration.
func oracleContexts(g *Graph, rest uint32, visit func(uint32)) {
	if len(g.usedIDs) <= exactEnumBits {
		for m := rest; ; m = (m - 1) & rest {
			visit(m)
			if m == 0 {
				return
			}
		}
	}
	for i := range g.nodes {
		visit(g.nodes[i].cfgMask)
	}
}

func oracleMaxBenefit(g *Graph, a index.ID) float64 {
	pos, ok := g.usedPos[a]
	if !ok {
		return 0
	}
	bit := uint32(1) << pos
	best := math.Inf(-1)
	oracleContexts(g, g.fullMask()&^bit, func(ctx uint32) {
		ctx &^= bit
		if b := g.CostMask(ctx) - g.CostMask(ctx|bit); b > best {
			best = b
		}
	})
	if math.IsInf(best, -1) {
		return 0
	}
	return best
}

func oracleDOI(g *Graph, a, b index.ID) float64 {
	if a == b {
		return 0
	}
	pa, okA := g.usedPos[a]
	pb, okB := g.usedPos[b]
	if !okA || !okB {
		return 0
	}
	bitA, bitB := uint32(1)<<pa, uint32(1)<<pb
	best := 0.0
	oracleContexts(g, g.fullMask()&^(bitA|bitB), func(ctx uint32) {
		ctx &^= bitA | bitB
		v := math.Abs(g.CostMask(ctx) - g.CostMask(ctx|bitA) -
			g.CostMask(ctx|bitB) + g.CostMask(ctx|bitA|bitB))
		if v > best {
			best = v
		}
	})
	return best
}

func oracleInteractions(g *Graph, threshold float64) []Interaction {
	var out []Interaction
	for i, a := range g.usedIDs {
		for _, b := range g.usedIDs[i+1:] {
			if d := oracleDOI(g, a, b); d > threshold {
				out = append(out, Interaction{A: a, B: b, Doi: d})
			}
		}
	}
	return out
}

// tpccChain builds the IBG of datagen.TPCCJoinChain(k) over its extracted
// candidates. The used union grows with k: 11 bits at k = 2 (dense
// statistics table), 17 at k = 3 (cost memo, no dense table), and at
// k = 5 the graph is cut at MaxNodes with 23 used bits (no memo).
func tpccChain(t testing.TB, k int) *Graph {
	t.Helper()
	cat, _ := datagen.Build()
	m := cost.NewModel(cat, index.NewRegistry(), cost.DefaultParams())
	s := datagen.TPCCJoinChain(k)
	return Build(whatif.New(m), s, cost.NewExtractor(m).Extract(s))
}

// TestStatsMatchesOracle is the differential test of the context-major
// statistics pass: on a dense graph, a memo graph, and a truncated 5-way
// join without memo, every benefit and every doi must equal the
// per-index/per-pair enumeration to the bit, for any worker count.
func TestStatsMatchesOracle(t *testing.T) {
	shapes := []struct {
		name     string
		k        int
		min, max int // expected used-union width
		truncate bool
	}{
		{"dense", 2, 1, exactEnumBits, false},
		{"memo", 3, exactEnumBits + 1, memoMaxBits, false},
		{"capped-5way", 5, memoMaxBits + 1, 32, true},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			g := tpccChain(t, sh.k)
			bitsUsed := g.UsedUnion().Len()
			if bitsUsed < sh.min || bitsUsed > sh.max || g.Truncated() != sh.truncate {
				t.Fatalf("fixture drifted: %d used bits, truncated=%v", bitsUsed, g.Truncated())
			}
			if sh.truncate && g.NodeCount() != MaxNodes {
				t.Fatalf("fixture drifted: %d nodes, want the %d cap", g.NodeCount(), MaxNodes)
			}
			used := g.UsedUnion().IDs()
			wantBen := make([]float64, len(used))
			for i, a := range used {
				wantBen[i] = oracleMaxBenefit(g, a)
			}
			// A threshold below every doi lists every pair; the median
			// doi exercises the filter.
			wantAll := oracleInteractions(g, -1)
			dois := make([]float64, len(wantAll))
			for k, in := range wantAll {
				dois[k] = in.Doi
			}
			sort.Float64s(dois)
			cutAt := dois[len(dois)/2]
			wantCut := oracleInteractions(g, cutAt)
			if len(wantCut) == 0 || len(wantCut) == len(wantAll) {
				t.Fatalf("fixture drifted: %d of %d pairs interact", len(wantCut), len(wantAll))
			}
			for _, workers := range []int{1, 2, 8} {
				ben, all := g.Stats(-1, workers)
				if len(ben) != len(wantBen) {
					t.Fatalf("workers=%d: %d benefits, want %d", workers, len(ben), len(wantBen))
				}
				for i := range ben {
					if math.Float64bits(ben[i]) != math.Float64bits(wantBen[i]) {
						t.Fatalf("workers=%d: benefit of %v = %v, oracle %v", workers, used[i], ben[i], wantBen[i])
					}
				}
				sameInteractions(t, workers, all, wantAll)
				benCut, cut := g.Stats(cutAt, workers)
				sameInteractions(t, workers, cut, wantCut)
				for i := range benCut {
					if math.Float64bits(benCut[i]) != math.Float64bits(ben[i]) {
						t.Fatalf("workers=%d: benefit depends on threshold", workers)
					}
				}
				benOnly, none := g.Stats(math.Inf(1), workers)
				if len(none) != 0 {
					t.Fatalf("workers=%d: +Inf threshold listed %d pairs", workers, len(none))
				}
				for i := range benOnly {
					if math.Float64bits(benOnly[i]) != math.Float64bits(ben[i]) {
						t.Fatalf("workers=%d: benefits-only pass differs at %v", workers, used[i])
					}
				}
			}
		})
	}
}

func sameInteractions(t *testing.T, workers int, got, want []Interaction) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("workers=%d: %d interactions, oracle %d", workers, len(got), len(want))
	}
	for k := range got {
		if got[k].A != want[k].A || got[k].B != want[k].B ||
			math.Float64bits(got[k].Doi) != math.Float64bits(want[k].Doi) {
			t.Fatalf("workers=%d: interaction %d = %+v, oracle %+v", workers, k, got[k], want[k])
		}
	}
}

// TestStatsReleasedGraph checks that a released graph (no memo, no
// pooled dense table) still yields the same statistics.
func TestStatsReleasedGraph(t *testing.T) {
	for _, k := range []int{2, 3} {
		g := tpccChain(t, k)
		ben, ins := g.Stats(1e-6, 1)
		g.Release()
		ben2, ins2 := g.Stats(1e-6, 2)
		for i := range ben {
			if math.Float64bits(ben[i]) != math.Float64bits(ben2[i]) {
				t.Fatalf("k=%d: benefit %d changed after Release: %v vs %v", k, i, ben[i], ben2[i])
			}
		}
		sameInteractions(t, 2, ins2, ins)
	}
}
