package core

import (
	"math"
	"time"

	"repro/internal/ibg"
	"repro/internal/index"
	"repro/internal/stmt"
)

// analysis carries one statement's read-only results from the heavy half
// of AnalyzeQuery (run) to the serialized fold (finish).
type analysis struct {
	extracted    index.Set
	g            *ibg.Graph
	used         []index.ID
	benefits     []float64
	interactions []ibg.Interaction
}

// AnalyzeQuery implements WFIT.analyzeQuery (Figure 4): maintain the
// candidate partition via chooseCands/repartition, then fan the per-part
// work-function updates against the statement's index benefit graph out
// across the worker pool. The graph is private to this call, so its
// pooled probe cache is released at the end for the next statement.
//
// The call runs in two timed stages, reported by LastAnalysisDurations:
// run (candidate mining, IBG build, benefit/doi maximizations) and finish
// (statistics fold, chooseCands/repartition, WFA updates).
func (t *WFIT) AnalyzeQuery(s *stmt.Statement) {
	//lint:allow nondeterminism(stage timing feeds only obs traces, never tuner state)
	start := time.Now()
	a := t.run(s)
	//lint:allow nondeterminism(stage timing feeds only obs traces, never tuner state)
	mid := time.Now()
	t.finish(a)
	t.lastRunDur = mid.Sub(start)
	//lint:allow nondeterminism(stage timing feeds only obs traces, never tuner state)
	t.lastFinishDur = time.Since(mid)
}

// run is the heavy phase: candidate mining (interning new candidates at
// the statement's position in the event order), IBG construction (the
// statement's what-if probes), and the per-index benefit and per-pair doi
// maximizations over the finished graph.
func (t *WFIT) run(s *stmt.Statement) analysis {
	workers := t.options.Workers
	if t.statsDisabled {
		return analysis{g: ibg.BuildWorkers(t.opt, s, t.universe, workers)}
	}
	extracted := t.extractor.Extract(s)
	// The graph spans the indices this statement brings into play — its
	// own extracted candidates plus the relevant monitored and
	// materialized ones — not the whole mined universe: that is what
	// keeps the per-statement what-if budget in the paper's 5–100 band
	// while the universe grows into the hundreds. Statistics for universe
	// members untouched by recent statements simply age out through the
	// history window.
	g := ibg.BuildWorkers(t.opt, s, extracted.Union(t.partsetC.Union(t.materialized)), workers)
	threshold := t.options.DoiThreshold
	if t.options.AssumeIndependent {
		threshold = math.Inf(1) // benefits only
	}
	benefits, interactions := g.Stats(threshold, workers)
	return analysis{
		extracted:    extracted,
		g:            g,
		used:         g.UsedUnion().IDs(),
		benefits:     benefits,
		interactions: interactions,
	}
}

// finish is the serialized half of a statement's analysis: fold the
// statistics observations in, maintain the candidate set and stable
// partition (chooseCands/repartition, Figure 6), and fan the per-part
// work-function updates against the statement's IBG. The summation and
// insertion orders are fixed, which is what keeps serial, batched, and
// recovered trajectories bit-identical.
func (t *WFIT) finish(a analysis) {
	t.n++
	g := a.g
	if !t.statsDisabled {
		// Line 1 (Figure 6): grow the universe with the mined candidates.
		t.universe = t.universe.Union(a.extracted)
		// Line 3: fold the precomputed benefit/doi maximizations into the
		// histories, serially and in deterministic order.
		for i, id := range a.used {
			t.idxStats.Add(id, t.n, a.benefits[i])
		}
		if !t.options.AssumeIndependent {
			for _, in := range a.interactions {
				t.intStats.Add(in.A, in.B, t.n, in.Doi)
			}
		}
		// Lines 4–5: D = M ∪ topIndices(U − M, idxCnt − |M|).
		d := t.chooseTop()
		// Line 6: choose the stable partition of D. Both sides are
		// normalized — t.partition always is (see repartition and the
		// constructors) and Choose returns Normalize output — so the
		// comparison needs none of Equal's re-sorting copies.
		newPartition := t.partn.Choose(d, t.partition, t.doiFunc())
		if !newPartition.EqualNormalized(t.partition) {
			t.repartition(newPartition)
			t.repartitions++
		}
	}
	t.lastIBGNodes = g.NodeCount()
	t.active = t.active[:0]
	for _, part := range t.parts {
		if g.Influences(part.candSet) {
			t.active = append(t.active, part)
		}
	}
	analyzeParts(t.options.Workers, t.active, g)
	g.Release()
	t.retire()
}
