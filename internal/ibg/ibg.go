// Package ibg implements the Index Benefit Graph of Schnaitter et al.
// (PVLDB 2(1), 2009 — reference [16] of the paper): a compact encoding of
// the what-if costs of all relevant index subsets for one statement.
//
// Each node holds a configuration Y, its optimizer cost, and the set
// used(Y) of indices the chosen plan depends on; children remove one used
// index at a time. Two structural facts make the graph useful:
//
//  1. cost(q, X) equals the cost of the node reached by walking from the
//     root and repeatedly stepping away from any used index not in X, so
//     a single optimizer call per node answers every configuration probe.
//  2. Indices that appear in no used set are cost-irrelevant, so benefit
//     and degree-of-interaction analyses only range over the union of
//     used sets. Up to exactEnumBits members they enumerate every subset
//     of it; above that they maximize over node contexts (each node's
//     configuration) instead, not over all subsets.
//
// A graph whose construction hits MaxNodes is no longer exact: probes
// that walk past the last expanded node get that node's cost, so the
// statement's costs, benefits and doi are approximate (ROADMAP.md, item
// 3, wide statements).
//
// WFIT builds one Graph per statement (line 2 of chooseCands, Figure 6)
// and serves all subsequent cost(q, X) probes — from WFA's work-function
// update, OPT's dynamic program, and the statistics maintenance — without
// further optimizer calls. After construction the graph answers probes
// with bitmask walks over the used union and a flat memo array: no
// allocation, no optimizer.
//
// Because WFIT builds and discards a graph per statement, construction
// and serving are tuned for steady-state reuse: the construction scratch
// (node slab, child links, dedup maps) lives in a sync.Pool, the frozen
// form is two flat slabs instead of per-node maps, and the cost memo is
// a pooled, epoch-stamped buffer that Release returns for the next
// statement — so the analysis path performs no O(2^bits) allocation or
// initialization per statement.
//
// Construction expands the node frontier wave by wave, so the per-node
// what-if optimizations of one wave can run on a worker pool
// (BuildWorkers); the resulting graph is byte-identical to a serial
// build. A frozen graph is safe for concurrent probing: the cost memo is
// filled with atomic writes of values that are deterministic functions of
// the (immutable) node structure.
package ibg

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/index"
	"repro/internal/par"
	"repro/internal/stmt"
	"repro/internal/whatif"
)

// MaxNodes caps graph construction. Past the cap the graph stops
// expanding, and a probe whose walk needs an unexpanded child returns
// the cost of the deepest node it reached: an approximation, not the
// configuration's what-if cost (ROADMAP.md, item 3, wide statements).
const MaxNodes = 4096

// exactEnumBits bounds the used-union size for benefit and doi
// maximization over every subset; larger graphs maximize over node
// contexts only (ROADMAP.md, item 3).
const exactEnumBits = 12

// memoMaxBits bounds the used-union size for the flat cost memo; wider
// graphs (which the MaxNodes cap keeps rare) fall back to uncached walks.
const memoMaxBits = 20

// node is one IBG vertex. Configurations and used sets are bitmasks over
// the graph's used-union (only used indices influence walks and costs).
type node struct {
	cost     float64
	cfgMask  uint32
	usedMask uint32
	children []*node // indexed by bit position in the used union; nil = leaf
}

// costMemo is a pooled probe cache. A slot is valid only when its stamp
// equals the current epoch, so a recycled buffer needs no O(2^bits)
// clearing: bumping the epoch invalidates every stale entry at once.
// (Earlier versions allocated a fresh array per statement and initialized
// every slot to an all-ones sentinel — a NaN bit pattern — which made the
// memo the single largest per-statement allocation.)
type costMemo struct {
	bits  int
	epoch uint32
	vals  []uint64 // float64 bit patterns, valid iff stamped
	stamp []uint32
	// dense is the benefit/doi statistics table: every mask's cost as a
	// plain float64, filled in one pass (Graph.statsCosts) when the used
	// union fits exactEnumBits. The submask enumerations behind Stats then
	// read raw floats instead of doing an atomic dance per probe. Lazily
	// sized, pooled with the memo.
	dense []float64
}

// memoPool[b] recycles memos of 2^b slots.
var memoPool [memoMaxBits + 1]sync.Pool

func acquireMemo(bits int) *costMemo {
	if m, _ := memoPool[bits].Get().(*costMemo); m != nil {
		m.epoch++
		if m.epoch == 0 {
			// Stamp wraparound (once per 2^32 reuses): old stamps could
			// collide with the restarted epoch, so clear them.
			clear(m.stamp)
			m.epoch = 1
		}
		return m
	}
	return &costMemo{
		bits:  bits,
		epoch: 1,
		vals:  make([]uint64, 1<<bits),
		stamp: make([]uint32, 1<<bits),
	}
}

// Graph is the index benefit graph of one statement over a candidate set.
type Graph struct {
	stmt      *stmt.Statement
	top       index.Set
	usedIDs   []index.ID
	usedPos   map[index.ID]int
	root      *node
	nodes     []node  // all vertices in creation (BFS) order; root first
	kids      []*node // children backing storage, sliced per parent
	truncated bool
	usedUnion index.Set
	denseOnce sync.Once // guards memo.dense fill for this graph

	// memo caches CostMask results as float64 bit patterns accessed
	// atomically, so concurrent probes are race-free: every writer stores
	// the same deterministic value. Only present when the used union is
	// small enough; nil after Release.
	memo *costMemo
}

// buildNode is the construction-time representation before masks exist.
type buildNode struct {
	cfg      index.Set
	mask     uint64 // bitmask over top's IDs (valid when top has <= 64 indices)
	cost     float64
	used     index.Set
	usedTop  uint64 // used as a top-space mask (valid when top has <= 64 indices)
	kidStart int32  // span into builder.links
	kidEnd   int32
}

// childLink records one parent→child edge during construction; parents
// own contiguous spans, replacing the per-node map of the original
// implementation.
type childLink struct {
	id    index.ID
	child int32
}

// builder is the pooled construction scratch: node slab, edge list, wave
// queues, and dedup maps, all reused across statements.
type builder struct {
	nodes  []buildNode
	links  []childLink
	wave   []int32
	nextWv []int32
	byMask map[uint64]int32
	byKey  map[string]int32
	topPos map[index.ID]int32
}

var builderPool = sync.Pool{New: func() any {
	return &builder{
		byMask: make(map[uint64]int32),
		topPos: make(map[index.ID]int32),
	}
}}

func (b *builder) reset() {
	b.nodes = b.nodes[:0]
	b.links = b.links[:0]
	b.wave = b.wave[:0]
	b.nextWv = b.nextWv[:0]
	clear(b.byMask)
	clear(b.topPos)
	if b.byKey != nil {
		clear(b.byKey)
	}
}

// Build constructs the IBG of s over the candidate set, restricted to the
// indices the cost model considers relevant to s. Each node costs exactly
// one what-if optimization (served through opt, so repeated builds reuse
// its cache).
func Build(opt *whatif.Optimizer, s *stmt.Statement, candidates index.Set) *Graph {
	return BuildWorkers(opt, s, candidates, 1)
}

// BuildWorkers is Build with the per-wave what-if optimizations fanned
// out across up to workers goroutines (<= 0 means one per CPU). The
// frontier is expanded level-synchronously in the serial algorithm's FIFO
// order, so the produced graph — node set, links, truncation point — is
// identical to Build's for any worker count.
func BuildWorkers(opt *whatif.Optimizer, s *stmt.Statement, candidates index.Set, workers int) *Graph {
	top := opt.Model().RestrictConfig(s, candidates)
	g := &Graph{stmt: s, top: top}

	b := builderPool.Get().(*builder)
	b.reset()
	defer builderPool.Put(b)

	// Node lookup is by configuration identity. Configurations are
	// subsets of top, so when top is small they intern as bitmasks; the
	// string-key map is the fallback for oversized candidate sets.
	topIDs := top.IDs()
	useMask := len(topIDs) <= 64
	for i, id := range topIDs {
		b.topPos[id] = int32(i)
	}
	if !useMask && b.byKey == nil {
		b.byKey = make(map[string]int32)
	}

	var fullMask uint64
	if useMask {
		if len(topIDs) == 64 {
			fullMask = ^uint64(0)
		} else {
			fullMask = (1 << len(topIDs)) - 1
		}
	}
	b.nodes = append(b.nodes, buildNode{cfg: top, mask: fullMask})
	if useMask {
		b.byMask[fullMask] = 0
	} else {
		b.byKey[top.Key()] = 0
	}

	// costWave prices every node of a frontier wave: one independent
	// what-if optimization each. The used set is also projected onto the
	// top bit space here so the freeze below runs map-free.
	costWave := func(wave []int32) {
		par.Do(workers, len(wave), func(i int) {
			n := &b.nodes[wave[i]]
			n.cost, n.used = opt.CostUsed(s, n.cfg)
			if useMask {
				var um uint64
				n.used.Each(func(a index.ID) {
					um |= 1 << b.topPos[a]
				})
				n.usedTop = um
			}
		})
	}
	b.wave = append(b.wave, 0)
	costWave(b.wave)

	for len(b.wave) > 0 && !g.truncated {
		b.nextWv = b.nextWv[:0]
		for _, ni := range b.wave {
			if len(b.nodes) >= MaxNodes {
				g.truncated = true
				break
			}
			// Copy the expansion inputs out: appending children may grow
			// the node slab and invalidate pointers into it.
			mask := b.nodes[ni].mask
			cfg := b.nodes[ni].cfg
			used := b.nodes[ni].used
			kidStart := int32(len(b.links))
			used.Each(func(a index.ID) {
				var child int32
				var ok bool
				if useMask {
					childMask := mask &^ (1 << b.topPos[a])
					if child, ok = b.byMask[childMask]; !ok {
						child = int32(len(b.nodes))
						b.nodes = append(b.nodes, buildNode{cfg: cfg.Remove(a), mask: childMask})
						b.byMask[childMask] = child
					}
				} else {
					childCfg := cfg.Remove(a)
					key := childCfg.Key()
					if child, ok = b.byKey[key]; !ok {
						child = int32(len(b.nodes))
						b.nodes = append(b.nodes, buildNode{cfg: childCfg})
						b.byKey[key] = child
					}
				}
				if !ok {
					b.nextWv = append(b.nextWv, child)
				}
				b.links = append(b.links, childLink{id: a, child: child})
			})
			b.nodes[ni].kidStart, b.nodes[ni].kidEnd = kidStart, int32(len(b.links))
		}
		// Even on truncation the created children get priced: the serial
		// algorithm computes a node's cost the moment it is enqueued.
		costWave(b.nextWv)
		b.wave, b.nextWv = b.nextWv, b.wave
	}

	g.freeze(b, topIDs, useMask)
	return g
}

// freeze computes the used union and rewrites the construction state into
// the compact probe-time form: one flat node slab, one children slab, and
// (when feasible) a pooled cost memo.
func (g *Graph) freeze(b *builder, topIDs []index.ID, useMask bool) {
	if useMask {
		var unionTop uint64
		for i := range b.nodes {
			unionTop |= b.nodes[i].usedTop
		}
		ids := make([]index.ID, 0, bits.OnesCount64(unionTop))
		for m := unionTop; m != 0; m &= m - 1 {
			ids = append(ids, topIDs[bits.TrailingZeros64(m)])
		}
		g.usedUnion = index.NewSet(ids...)
	} else {
		union := index.EmptySet
		for i := range b.nodes {
			union = union.Union(b.nodes[i].used)
		}
		g.usedUnion = union
	}
	g.usedIDs = g.usedUnion.IDs()
	g.usedPos = make(map[index.ID]int, len(g.usedIDs))
	for i, id := range g.usedIDs {
		g.usedPos[id] = i
	}

	// Translate top-space masks to used-union masks with a flat table.
	var top2union []uint32
	if useMask {
		top2union = make([]uint32, len(topIDs))
		for i, id := range topIDs {
			if p, ok := g.usedPos[id]; ok {
				top2union[i] = 1 << p
			}
		}
	}
	g.nodes = make([]node, len(b.nodes))
	parents := 0
	for i := range b.nodes {
		bn := &b.nodes[i]
		if useMask {
			g.nodes[i] = node{
				cost:     bn.cost,
				cfgMask:  projectTop(bn.mask, top2union),
				usedMask: projectTop(bn.usedTop, top2union),
			}
		} else {
			g.nodes[i] = node{
				cost:     bn.cost,
				cfgMask:  g.maskOf(bn.cfg),
				usedMask: g.maskOf(bn.used),
			}
		}
		if bn.kidEnd > bn.kidStart {
			parents++
		}
	}
	g.kids = make([]*node, parents*len(g.usedIDs))
	next := 0
	for i := range b.nodes {
		bn := &b.nodes[i]
		if bn.kidEnd <= bn.kidStart {
			continue
		}
		children := g.kids[next : next+len(g.usedIDs) : next+len(g.usedIDs)]
		next += len(g.usedIDs)
		for _, l := range b.links[bn.kidStart:bn.kidEnd] {
			children[g.usedPos[l.id]] = &g.nodes[l.child]
		}
		g.nodes[i].children = children
	}
	g.root = &g.nodes[0]

	if bits := len(g.usedIDs); bits <= memoMaxBits {
		g.memo = acquireMemo(bits)
	}
}

// Release returns the graph's pooled probe cache for reuse by a later
// graph. Call it once all probing is done (WFIT releases each
// statement's graph at the end of the analysis); probing a released
// graph is still correct but falls back to uncached walks. Long-lived
// graphs (the benchmark environment's evaluation IBGs) simply never
// release. Release must not run concurrently with probes.
func (g *Graph) Release() {
	if m := g.memo; m != nil {
		g.memo = nil
		memoPool[m.bits].Put(m)
	}
}

// projectTop translates a top-space bitmask into the used-union space
// via the per-bit image table.
func projectTop(topMask uint64, top2union []uint32) uint32 {
	var um uint32
	for m := topMask; m != 0; m &= m - 1 {
		um |= top2union[bits.TrailingZeros64(m)]
	}
	return um
}

// maskOf projects a set onto the used-union bit space.
func (g *Graph) maskOf(s index.Set) uint32 {
	var m uint32
	s.Each(func(id index.ID) {
		if p, ok := g.usedPos[id]; ok {
			m |= 1 << p
		}
	})
	return m
}

// setOf converts a used-union mask back to a set.
func (g *Graph) setOf(mask uint32) index.Set {
	var ids []index.ID
	for i := range g.usedIDs {
		if mask&(1<<i) != 0 {
			ids = append(ids, g.usedIDs[i])
		}
	}
	return index.NewSet(ids...)
}

// Statement returns the statement the graph was built for.
func (g *Graph) Statement() *stmt.Statement { return g.stmt }

// Top returns the root configuration (all relevant candidates).
func (g *Graph) Top() index.Set { return g.top }

// NodeCount reports how many nodes (= what-if calls) the graph holds.
func (g *Graph) NodeCount() int { return len(g.nodes) }

// Truncated reports whether construction hit MaxNodes.
func (g *Graph) Truncated() bool { return g.truncated }

// UsedUnion returns the union of used sets over all nodes: the indices
// that can influence the statement's cost.
func (g *Graph) UsedUnion() index.Set { return g.usedUnion }

// Influential returns the members of cfg that can change the statement's
// cost.
func (g *Graph) Influential(cfg index.Set) index.Set {
	return cfg.Intersect(g.usedUnion)
}

// Influences reports whether any member of cfg can change the
// statement's cost, without materializing the intersection. Together
// with Influential it makes *Graph satisfy core.StatementCost.
func (g *Graph) Influences(cfg index.Set) bool {
	return g.usedUnion.Intersects(cfg)
}

// find walks from the root to the node covering mask (used ⊆ mask).
func (g *Graph) find(mask uint32) *node {
	n, _ := g.walk(mask)
	return n
}

// walk is find that also returns the union of the used masks of every
// node on the path. The path reads mask only through those bits, so
// toggling any other bit reaches the same node.
func (g *Graph) walk(mask uint32) (*node, uint32) {
	n := g.root
	var seen uint32
	for {
		seen |= n.usedMask
		rem := n.usedMask &^ mask
		if rem == 0 || n.children == nil {
			return n, seen
		}
		child := n.children[bits.TrailingZeros32(rem)]
		if child == nil {
			// Truncated graph: approximate with the deepest node.
			return n, seen
		}
		n = child
	}
}

// CostMask returns cost(q, X) for X given as a used-union mask.
func (g *Graph) CostMask(mask uint32) float64 {
	if m := g.memo; m != nil {
		if atomic.LoadUint32(&m.stamp[mask]) == m.epoch {
			return math.Float64frombits(atomic.LoadUint64(&m.vals[mask]))
		}
		v := g.find(mask).cost
		// Value first, stamp second: a reader that observes the stamp is
		// guaranteed to read a (deterministic) value. Racing writers
		// store identical bits.
		atomic.StoreUint64(&m.vals[mask], math.Float64bits(v))
		atomic.StoreUint32(&m.stamp[mask], m.epoch)
		return v
	}
	return g.find(mask).cost
}

// Cost returns cost(q, X) for any X (indices outside the used union never
// change the cost and are ignored).
func (g *Graph) Cost(x index.Set) float64 {
	return g.CostMask(g.maskOf(x))
}

// CostProbe implements core.MaskCoster: it returns a probe over bitmasks
// in the caller's own id space (bit i of the argument stands for ids[i])
// plus the mask of relevant caller bits — the ids inside the graph's used
// union, the only ones that can change the cost. xlat is caller scratch
// (len ≥ len(ids)) that carries the id→graph-bit translation, so repeated
// calls allocate nothing beyond the closure. Requires len(ids) ≤ 32.
func (g *Graph) CostProbe(ids []index.ID, xlat []uint32) (func(mask uint32) float64, uint32) {
	xlat = xlat[:len(ids)]
	var relevant uint32
	for i, id := range ids {
		if p, ok := g.usedPos[id]; ok {
			xlat[i] = 1 << p
			relevant |= 1 << i
		} else {
			xlat[i] = 0
		}
	}
	probe := func(m uint32) float64 {
		var gm uint32
		for ; m != 0; m &= m - 1 {
			gm |= xlat[bits.TrailingZeros32(m)]
		}
		return g.CostMask(gm)
	}
	return probe, relevant
}

// Used returns the used set of the plan for configuration X.
func (g *Graph) Used(x index.Set) index.Set {
	return g.setOf(g.find(g.maskOf(x)).usedMask)
}

// EmptyCost returns cost(q, ∅).
func (g *Graph) EmptyCost() float64 { return g.CostMask(0) }

// Benefit returns benefit_q({a}, X) = cost(X) − cost(X ∪ {a}). Negative
// values arise for updates when a must be maintained.
func (g *Graph) Benefit(a index.ID, x index.Set) float64 {
	pos, ok := g.usedPos[a]
	if !ok {
		return 0
	}
	m := g.maskOf(x) &^ (1 << pos)
	return g.CostMask(m) - g.CostMask(m|(1<<pos))
}

// Stats computes the statement's benefit and doi statistics (line 3 of
// chooseCands, Figure 6) in one pass. benefits[i] is max_X
// benefit_q({a}, X) for the i-th member of UsedUnion().IDs() (0 when no
// context yields a finite maximum); interactions lists every used pair
// whose degree of interaction doi_q(a, b) =
// max_X |cost(X) − cost(X∪{a}) − cost(X∪{b}) + cost(X∪{a,b})|
// exceeds threshold, ordered by ascending A, then B. A threshold of +Inf
// admits no pair, so the doi maximization is skipped altogether.
//
// When the used union fits exactEnumBits the maxima run over every
// context X, read from the dense cost table. Wider graphs maximize over
// node contexts instead (each node's configuration with the index bits
// cleared): a context-major pass walks each node context c once, prices
// c and its n single flips c^i — which give every benefit — and then
// needs only c^i^j per pair, since the other three doi terms are among
// the flips. Without a memo (more than memoMaxBits bits) a flip of a bit
// outside the used masks along a walk leaves the walk unchanged, so its
// cost is reused without walking again. Every value is the one a
// per-index, per-pair enumeration computes — the same terms in the same
// expression order — and maxima are order-independent, so the result is
// identical for any worker count: up to workers goroutines (<= 0 means
// one per CPU) split the units or contexts, and per-chunk maxima merge by
// max.
func (g *Graph) Stats(threshold float64, workers int) (benefits []float64, interactions []Interaction) {
	n := len(g.usedIDs)
	npairs := n * (n - 1) / 2
	if math.IsInf(threshold, 1) {
		npairs = 0
	}
	var doi []float64
	if dense := g.statsCosts(); dense != nil {
		full := g.fullMask()
		benefits = make([]float64, n)
		doi = make([]float64, npairs)
		// Unit i is index i's benefit and its row of pairs (i, j > i),
		// which starts at row-major pair index i·(2n−i−1)/2.
		par.Do(workers, n, func(i int) {
			bitI := uint32(1) << i
			benefits[i] = denseBenefit(dense, full, bitI)
			for j, k := i+1, i*(2*n-i-1)/2; j < n && npairs > 0; j, k = j+1, k+1 {
				doi[k] = denseDOI(dense, full, bitI, 1<<j)
			}
		})
	} else {
		chunks := min(par.Workers(workers), len(g.nodes))
		accs := make([]statsAcc, chunks)
		par.Do(workers, chunks, func(k int) {
			acc := &accs[k]
			acc.init(n, npairs)
			lo, hi := k*len(g.nodes)/chunks, (k+1)*len(g.nodes)/chunks
			for i := lo; i < hi; i++ {
				g.visitContext(acc, g.nodes[i].cfgMask)
			}
		})
		benefits, doi = accs[0].ben, accs[0].doi
		for _, acc := range accs[1:] {
			for i, b := range acc.ben {
				benefits[i] = max(benefits[i], b)
			}
			for k, v := range acc.doi {
				doi[k] = max(doi[k], v)
			}
		}
	}
	for i, b := range benefits {
		if math.IsInf(b, -1) {
			benefits[i] = 0
		}
	}
	for i, k := 0, 0; i < n && npairs > 0; i++ {
		for j := i + 1; j < n; j++ {
			if doi[k] > threshold {
				interactions = append(interactions, Interaction{A: g.usedIDs[i], B: g.usedIDs[j], Doi: doi[k]})
			}
			k++
		}
	}
	return benefits, interactions
}

// denseBenefit maximizes benefit({bit}, X) over every context X.
func denseBenefit(dense []float64, full, bit uint32) float64 {
	best := math.Inf(-1)
	for ctx := full &^ bit; ; ctx = (ctx - 1) & (full &^ bit) {
		if b := dense[ctx] - dense[ctx|bit]; b > best {
			best = b
		}
		if ctx == 0 {
			return best
		}
	}
}

// denseDOI maximizes the doi of the pair (bitA, bitB) over every context.
func denseDOI(dense []float64, full, bitA, bitB uint32) float64 {
	best := 0.0
	rest := full &^ (bitA | bitB)
	for ctx := rest; ; ctx = (ctx - 1) & rest {
		v := math.Abs(dense[ctx] - dense[ctx|bitA] -
			dense[ctx|bitB] + dense[ctx|bitA|bitB])
		if v > best {
			best = v
		}
		if ctx == 0 {
			return best
		}
	}
}

// statsAcc is one chunk's running maxima in a context-major Stats pass,
// plus the per-context flip scratch.
type statsAcc struct {
	ben []float64 // per used bit, from −Inf
	doi []float64 // per pair (i, j > i) in row-major order, from 0
	f   []float64 // f[i] = cost(c^i) for the current context c
	u   []uint32  // u[i] = used masks along the walk of c^i (no-memo graphs)
}

func (a *statsAcc) init(n, npairs int) {
	a.ben = make([]float64, n)
	for i := range a.ben {
		a.ben[i] = math.Inf(-1)
	}
	a.doi = make([]float64, npairs)
	a.f = make([]float64, n)
	a.u = make([]uint32, n)
}

// visitContext folds node context c into acc. A benefit or doi term for
// context X = c with the index bits cleared is one of cost(c), cost(c^i)
// or cost(c^i^j), picked by which of the bits c holds.
func (g *Graph) visitContext(acc *statsAcc, c uint32) {
	n := len(acc.f)
	memo := g.memo != nil
	var f0 float64
	var u0 uint32
	if memo {
		f0 = g.CostMask(c)
	} else {
		n, u := g.walk(c)
		f0, u0 = n.cost, u
	}
	for i := 0; i < n; i++ {
		bit := uint32(1) << i
		switch {
		case memo:
			acc.f[i] = g.CostMask(c ^ bit)
		case u0&bit == 0:
			acc.f[i], acc.u[i] = f0, u0
		default:
			n, u := g.walk(c ^ bit)
			acc.f[i], acc.u[i] = n.cost, u
		}
		var b float64
		if c&bit != 0 {
			b = acc.f[i] - f0
		} else {
			b = f0 - acc.f[i]
		}
		if b > acc.ben[i] {
			acc.ben[i] = b
		}
	}
	if len(acc.doi) == 0 {
		return
	}
	var q [4]float64 // cost of c with bit i toggled (q[1]), j (q[2]), both (q[3])
	q[0] = f0
	k := 0
	for i := 0; i < n; i++ {
		bitI := uint32(1) << i
		q[1] = acc.f[i]
		for j := i + 1; j < n; j++ {
			bitJ := uint32(1) << j
			q[2] = acc.f[j]
			switch {
			case memo:
				q[3] = g.CostMask(c ^ bitI ^ bitJ)
			case acc.u[i]&bitJ == 0:
				q[3] = acc.f[i]
			case acc.u[j]&bitI == 0:
				q[3] = acc.f[j]
			default:
				q[3] = g.find(c ^ bitI ^ bitJ).cost
			}
			// s is c's own position among the four: the terms of
			// X = c &^ (i|j) are q[0^s], q[1^s] (X∪{i}), q[2^s] (X∪{j})
			// and q[3^s] (X∪{i,j}).
			s := c>>i&1 | (c>>j&1)<<1
			v := math.Abs(q[s] - q[1^s] - q[2^s] + q[3^s])
			if v > acc.doi[k] {
				acc.doi[k] = v
			}
			k++
		}
	}
}

// statsCosts returns a dense cost table over every used-union mask —
// dense[m] == CostMask(m) — or nil when the union exceeds exactEnumBits.
// The table is filled once per graph and pooled with the memo; a
// released graph gets a fresh, unshared table per call. Safe for
// concurrent use: the sync.Once fill happens-before every read.
func (g *Graph) statsCosts() []float64 {
	if len(g.usedIDs) > exactEnumBits {
		return nil
	}
	size := 1 << len(g.usedIDs)
	fill := func(dense []float64) {
		for mask := range dense {
			dense[mask] = g.find(uint32(mask)).cost
		}
	}
	m := g.memo
	if m == nil {
		dense := make([]float64, size)
		fill(dense)
		return dense
	}
	g.denseOnce.Do(func() {
		if cap(m.dense) < size {
			m.dense = make([]float64, size)
		}
		m.dense = m.dense[:size]
		fill(m.dense)
	})
	return m.dense
}

// fullMask is the mask with every used-union bit set.
func (g *Graph) fullMask() uint32 {
	if len(g.usedIDs) == 32 {
		return ^uint32(0)
	}
	return (1 << len(g.usedIDs)) - 1
}

// Interaction is one interacting index pair with its degree.
type Interaction struct {
	A, B index.ID // A < B
	Doi  float64
}
