// Package bandit implements a C²UCB-style contextual combinatorial
// bandit tuner (after "DBA bandits", arXiv 2010.09208, and "No DBA? No
// regret!", arXiv 2108.10130) behind the tuner.Engine seam. Each
// candidate index is an arm; its context vector is built from the same
// IBG/what-if substrate WFIT uses (observed per-statement benefits,
// windowed benefit history, creation cost); a shared ridge regression
// predicts the next benefit, and the recommendation is the top-k
// super-arm by upper confidence bound, net of amortized creation cost.
//
// The engine honors every invariant the seam demands: analysis is split
// into a speculative side-effect-free stage validated by (epoch,
// registry length) capture, all randomness (an occasional ε-greedy
// exploration draw) comes from interaction.Rand with its position in
// the exported state, retirement and registry compaction mirror WFIT's,
// and recovery from the kind-tagged snapshot payload is bit-identical.
package bandit

import (
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/ibg"
	"repro/internal/index"
	"repro/internal/interaction"
	"repro/internal/stmt"
	"repro/internal/tuner"
	"repro/internal/whatif"
)

// Kind is the engine's registry key and snapshot kind tag.
const Kind = "bandit"

const (
	// featDim is the context vector dimension: bias, windowed benefit,
	// creation cost.
	featDim = 3
	// ridgeLambda is the ridge regularizer λ (the Gram matrix starts as
	// λI, keeping it invertible before any observations).
	ridgeLambda = 1.0
	// ucbAlpha scales the confidence width.
	ucbAlpha = 1.0
	// exploreProb is the ε-greedy rate: the probability, per statement,
	// of forcing one unselected arm into the super-arm.
	exploreProb = 0.05
)

func init() {
	tuner.Register(tuner.Factory{
		Kind:    Kind,
		New:     func(opt *whatif.Optimizer, options core.Options) tuner.Engine { return New(opt, options) },
		Restore: restoreEngine,
	})
}

// Bandit is the C²UCB tuner. Zero-valued options fields mean what they
// mean for WFIT (no retirement, unbounded windows); the same
// SessionConfig defaults apply to both engines.
type Bandit struct {
	opt       *whatif.Optimizer
	extractor *cost.Extractor
	reg       *index.Registry
	options   core.Options
	rng       *interaction.Rand

	n            int
	retired      int
	reselections int

	s0           index.Set
	materialized index.Set
	universe     index.Set
	// selection is the current super-arm (= Recommend()).
	selection index.Set

	// stats holds the windowed per-arm benefit history (HistSize).
	stats *interaction.BenefitStats

	// pinned/banned map voted arms to the vote's statement position:
	// F+ forces an arm into the super-arm and F− keeps it out, each for
	// a grace window of HistSize statements (the same pin semantics as
	// WFIT's feedback).
	pinned map[index.ID]int
	banned map[index.ID]int

	// gram is the ridge Gram matrix λI + Σxxᵀ (featDim×featDim,
	// row-major) and reward the accumulated Σr·x.
	gram   []float64
	reward []float64

	lastIBGNodes  int
	lastRunDur    time.Duration
	lastFinishDur time.Duration

	// epoch counts changes that invalidate a speculative Analysis:
	// super-arm changes (the IBG evaluation context), materialization
	// changes, feedback, and registry compactions. Registry growth is
	// detected separately by length — see AnalysisValid.
	epoch uint64
}

// New builds a fresh bandit engine against a what-if optimizer.
func New(opt *whatif.Optimizer, options core.Options) *Bandit {
	t := &Bandit{
		opt:          opt,
		extractor:    cost.NewExtractor(opt.Model()),
		reg:          opt.Model().Registry(),
		options:      options,
		rng:          interaction.NewRand(options.Seed),
		s0:           options.InitialMaterialized,
		materialized: options.InitialMaterialized,
		universe:     options.InitialMaterialized,
		selection:    options.InitialMaterialized,
		stats:        interaction.NewBenefitStats(options.HistSize),
		pinned:       make(map[index.ID]int),
		banned:       make(map[index.ID]int),
		gram:         make([]float64, featDim*featDim),
		reward:       make([]float64, featDim),
	}
	for i := 0; i < featDim; i++ {
		t.gram[i*featDim+i] = ridgeLambda
	}
	return t
}

var _ tuner.Engine = (*Bandit)(nil)

// Kind returns "bandit".
func (t *Bandit) Kind() string { return Kind }

// analysis is the speculative stage: candidate extraction, IBG build,
// and per-arm benefit maximization, all side-effect-free against the
// captured (epoch, registry length) state.
type analysis struct {
	t       *Bandit
	st      *stmt.Statement
	workers int
	epoch   uint64
	regLen  int
	// evalBase is the captured super-arm ∪ materialized set the IBG is
	// built over alongside the statement's own candidates.
	evalBase index.Set

	ran    bool
	ok     bool
	runDur time.Duration

	extracted index.Set
	used      []index.ID
	benefits  []float64
	nodes     int
}

// BeginAnalysis captures the evaluation context for s.
func (t *Bandit) BeginAnalysis(s *stmt.Statement, workers int) tuner.Analysis {
	if workers <= 0 {
		workers = 1
	}
	return &analysis{
		t:        t,
		st:       s,
		workers:  workers,
		epoch:    t.epoch,
		regLen:   t.reg.Len(),
		evalBase: t.selection.Union(t.materialized),
	}
}

// Run performs the speculative analysis without interning candidates or
// touching engine state.
func (a *analysis) Run() { a.run(false) }

func (a *analysis) run(intern bool) {
	//lint:allow nondeterminism(wall-clock observability only; durations never feed tuning decisions)
	start := time.Now()
	a.ran = true
	if intern {
		a.extracted = a.t.extractor.Extract(a.st)
	} else {
		var known bool
		a.extracted, known = a.t.extractor.Peek(a.st)
		if !known {
			// The statement mines a candidate the registry has not seen:
			// interning is a mutation, so the speculation bails and the
			// apply path re-runs serially.
			a.ok = false
			//lint:allow nondeterminism(wall-clock observability only; durations never feed tuning decisions)
			a.runDur = time.Since(start)
			return
		}
	}
	eval := a.extracted.Union(a.evalBase)
	g := ibg.BuildWorkers(a.t.opt, a.st, eval, a.workers)
	a.nodes = g.NodeCount()
	a.used = g.UsedUnion().IDs()
	a.benefits, _ = g.Stats(math.Inf(1), a.workers)
	g.Release()
	a.ok = true
	//lint:allow nondeterminism(wall-clock observability only; durations never feed tuning decisions)
	a.runDur = time.Since(start)
}

// Discard releases the analysis without applying it.
func (a *analysis) Discard() {}

// AnalysisValid reports whether a's capture still reflects the engine.
func (t *Bandit) AnalysisValid(a tuner.Analysis) bool {
	ba := a.(*analysis)
	return ba.t == t && ba.epoch == t.epoch && ba.regLen == t.reg.Len()
}

// ApplyAnalysis folds a completed analysis into the engine; if the
// speculation went stale or bailed, it re-analyzes serially. Either way
// the resulting state is bit-identical to AnalyzeQuery on the same
// statement.
func (t *Bandit) ApplyAnalysis(a tuner.Analysis) bool {
	ba := a.(*analysis)
	if ba.ran && ba.ok && t.AnalysisValid(a) {
		t.finishAnalysis(ba)
		return true
	}
	fresh := t.BeginAnalysis(ba.st, ba.workers).(*analysis)
	fresh.run(true)
	t.finishAnalysis(fresh)
	return false
}

// AnalyzeQuery is the serial path: capture, analyze, fold.
func (t *Bandit) AnalyzeQuery(s *stmt.Statement) {
	a := t.BeginAnalysis(s, t.options.Workers).(*analysis)
	a.run(true)
	t.finishAnalysis(a)
}

// finishAnalysis is the serialized fold: advance the statement clock,
// grow the universe, update the regression from this statement's
// observed benefits, retire idle arms, and recompute the super-arm.
func (t *Bandit) finishAnalysis(a *analysis) {
	//lint:allow nondeterminism(wall-clock observability only; durations never feed tuning decisions)
	start := time.Now()
	t.n++
	t.lastIBGNodes = a.nodes
	t.lastRunDur = a.runDur
	t.universe = t.universe.Union(a.extracted)

	// Observe each used arm: the context vector is computed from the
	// history BEFORE this statement's observation enters the window, so
	// the model always predicts the next benefit from the past.
	for i, id := range a.used {
		x := t.features(id)
		t.observe(x, a.benefits[i])
		t.stats.Add(id, t.n, a.benefits[i])
	}

	t.retire()
	t.reselect()
	//lint:allow nondeterminism(wall-clock observability only; durations never feed tuning decisions)
	t.lastFinishDur = time.Since(start)
}

// features builds the context vector for one arm.
func (t *Bandit) features(id index.ID) [featDim]float64 {
	return [featDim]float64{
		1,
		t.stats.Current(id, t.n),
		t.reg.CreateCost(id),
	}
}

// observe folds one (context, reward) pair into the ridge regression.
func (t *Bandit) observe(x [featDim]float64, r float64) {
	for i := 0; i < featDim; i++ {
		for j := 0; j < featDim; j++ {
			t.gram[i*featDim+j] += x[i] * x[j]
		}
		t.reward[i] += r * x[i]
	}
}

// retire drops arms that have not been observed beneficial for
// RetireAfter statements, exactly WFIT's schedule: LastPos is 0 for an
// arm mined but never observed, so it ages out on the same clock.
func (t *Bandit) retire() {
	ra := t.options.RetireAfter
	if ra <= 0 {
		return
	}
	cutoff := t.n - ra
	if cutoff < 0 {
		return
	}
	keep := t.selection.Union(t.materialized).Union(t.s0).Union(t.activeVotes(t.pinned)).Union(t.activeVotes(t.banned))
	var dead []index.ID
	t.universe.Each(func(id index.ID) {
		if keep.Contains(id) {
			return
		}
		if t.stats.LastPos(id) <= cutoff {
			dead = append(dead, id)
		}
	})
	for _, id := range dead {
		t.stats.Evict(id)
	}
	if len(dead) > 0 {
		t.universe = t.universe.Minus(index.NewSet(dead...))
		t.retired += len(dead)
	}
}

// activeVotes expires votes older than the HistSize grace window and
// returns the arms still covered. A non-positive HistSize means
// unbounded grace, matching WFIT's pin semantics.
func (t *Bandit) activeVotes(votes map[index.ID]int) index.Set {
	if len(votes) == 0 {
		return index.EmptySet
	}
	grace := t.options.HistSize
	ids := make([]index.ID, 0, len(votes))
	for id, pos := range votes {
		if grace > 0 && t.n-pos >= grace {
			delete(votes, id)
			continue
		}
		ids = append(ids, id)
	}
	return index.NewSet(ids...)
}

// scoredArm is one arm's UCB score during super-arm selection.
type scoredArm struct {
	id  index.ID
	net float64
}

// reselect recomputes the super-arm: top-IdxCnt arms by UCB score net
// of amortized creation cost, forced pins in, active bans out, plus an
// occasional ε-greedy exploration arm. The epoch advances iff the
// super-arm changed, invalidating in-flight speculation built over it.
func (t *Bandit) reselect() {
	pins := t.activeVotes(t.pinned)
	bans := t.activeVotes(t.banned)

	inv := invert3(t.gram)
	theta := mulVec3(inv, t.reward)

	// Amortize an arm's creation cost over the statistics horizon; with
	// unbounded windows a single statement must justify it.
	horizon := float64(t.options.HistSize)
	if horizon <= 0 {
		horizon = 1
	}

	arms := make([]scoredArm, 0, t.universe.Len())
	t.universe.Each(func(id index.ID) {
		if bans.Contains(id) || pins.Contains(id) {
			return
		}
		x := t.features(id)
		mean := theta[0]*x[0] + theta[1]*x[1] + theta[2]*x[2]
		width := quadForm3(inv, x)
		score := mean + ucbAlpha*math.Sqrt(math.Max(width, 0))
		net := score - t.reg.CreateCost(id)/horizon
		if net > 0 {
			arms = append(arms, scoredArm{id: id, net: net})
		}
	})
	sort.Slice(arms, func(i, j int) bool {
		if arms[i].net != arms[j].net {
			return arms[i].net > arms[j].net
		}
		return arms[i].id < arms[j].id
	})

	budget := t.options.IdxCnt
	if budget <= 0 {
		budget = len(arms)
	}
	sel := pins
	for i := 0; i < len(arms) && i < budget; i++ {
		sel = sel.Add(arms[i].id)
	}

	// ε-greedy exploration: occasionally force one unselected,
	// unbanned arm in, so cold arms gather observations. The draw
	// happens exactly once per reselect, keeping the stream position a
	// pure function of the event sequence.
	if t.rng.Float64() < exploreProb {
		rest := t.universe.Minus(sel).Minus(bans)
		if !rest.Empty() {
			pick := int(t.rng.Float64() * float64(rest.Len()))
			if pick >= rest.Len() {
				pick = rest.Len() - 1
			}
			sel = sel.Add(rest.At(pick))
		}
	}

	if !sel.Equal(t.selection) {
		t.selection = sel
		t.reselections++
		t.epoch++
	}
}

// Recommend returns the current super-arm.
func (t *Bandit) Recommend() index.Set { return t.selection }

// Feedback applies DBA votes: F+ pins arms into the super-arm, F− bans
// them out, each for a HistSize grace window.
func (t *Bandit) Feedback(plus, minus index.Set) {
	if plus.Empty() && minus.Empty() {
		return
	}
	plus.Each(func(id index.ID) {
		t.pinned[id] = t.n
		delete(t.banned, id)
	})
	minus.Each(func(id index.ID) {
		t.banned[id] = t.n
		delete(t.pinned, id)
	})
	t.universe = t.universe.Union(plus)
	t.reselect()
}

// SetMaterialized informs the engine of the externally-materialized
// configuration.
func (t *Bandit) SetMaterialized(m index.Set) {
	if m.Equal(t.materialized) {
		return
	}
	t.materialized = m
	t.epoch++
}

// Materialized returns the engine's view of the materialized set.
func (t *Bandit) Materialized() index.Set { return t.materialized }

// CompactRegistry drops unreferenced registry entries and remaps every
// ID the engine holds, mirroring WFIT's compaction contract.
func (t *Bandit) CompactRegistry() int {
	live := t.universe.Union(t.materialized).Union(t.s0).Union(t.selection)
	for id := range t.pinned {
		live = live.Add(id)
	}
	for id := range t.banned {
		live = live.Add(id)
	}
	dropped := t.reg.Len() - live.Len()
	if dropped <= 0 {
		return 0
	}
	t.epoch++
	remap := t.reg.Compact(live)
	t.s0 = t.s0.Remap(remap)
	t.materialized = t.materialized.Remap(remap)
	t.universe = t.universe.Remap(remap)
	t.selection = t.selection.Remap(remap)
	t.stats.Remap(remap)
	t.pinned = remapVotes(t.pinned, remap)
	t.banned = remapVotes(t.banned, remap)
	t.opt.Invalidate()
	return dropped
}

func remapVotes(votes map[index.ID]int, remap []index.ID) map[index.ID]int {
	if len(votes) == 0 {
		return votes
	}
	out := make(map[index.ID]int, len(votes))
	for id, pos := range votes {
		out[remap[id]] = pos
	}
	return out
}

// Status reports the bandit gauges: Parts/States describe the super-arm
// (its size and the count of arms it was chosen from), Repartitions
// counts super-arm changes (the structural reorganizations of this
// engine), and PairWindows is always zero — the bandit tracks no pair
// statistics.
func (t *Bandit) Status() tuner.Status {
	return tuner.Status{
		UniverseSize:   t.universe.Len(),
		Repartitions:   t.reselections,
		Parts:          t.selection.Len(),
		States:         t.universe.Len(),
		BenefitWindows: t.stats.Len(),
		Retired:        t.retired,
	}
}

// LastIBGNodes reports the node count of the last statement's IBG.
func (t *Bandit) LastIBGNodes() int { return t.lastIBGNodes }

// LastAnalysisDurations reports the last statement's stage timings.
func (t *Bandit) LastAnalysisDurations() (run, finish time.Duration) {
	return t.lastRunDur, t.lastFinishDur
}

// invert3 inverts a symmetric positive-definite 3×3 matrix (row-major)
// via cofactors. The Gram matrix is λI + Σxxᵀ with λ > 0, so the
// determinant is always positive.
func invert3(m []float64) [featDim * featDim]float64 {
	a, b, c := m[0], m[1], m[2]
	d, e, f := m[3], m[4], m[5]
	g, h, i := m[6], m[7], m[8]
	ca := e*i - f*h
	cb := -(d*i - f*g)
	cc := d*h - e*g
	det := a*ca + b*cb + c*cc
	inv := 1 / det
	return [featDim * featDim]float64{
		ca * inv, (c*h - b*i) * inv, (b*f - c*e) * inv,
		cb * inv, (a*i - c*g) * inv, (c*d - a*f) * inv,
		cc * inv, (b*g - a*h) * inv, (a*e - b*d) * inv,
	}
}

// mulVec3 computes m·v for a row-major 3×3 matrix.
func mulVec3(m [featDim * featDim]float64, v []float64) [featDim]float64 {
	return [featDim]float64{
		m[0]*v[0] + m[1]*v[1] + m[2]*v[2],
		m[3]*v[0] + m[4]*v[1] + m[5]*v[2],
		m[6]*v[0] + m[7]*v[1] + m[8]*v[2],
	}
}

// quadForm3 computes xᵀ·m·x for a row-major 3×3 matrix.
func quadForm3(m [featDim * featDim]float64, x [featDim]float64) float64 {
	mx := mulVec3(m, x[:])
	return x[0]*mx[0] + x[1]*mx[1] + x[2]*mx[2]
}
