// Package cost implements the what-if optimizer simulator: an analytical
// cost model that prices a statement under a hypothetical index
// configuration. It stands in for the DB2 what-if interface the paper's
// prototype used (§6), providing the two services WFIT needs from the DBMS:
// cost(q, X) for arbitrary X, and candidate-index extraction.
//
// The model selects, per table, the cheapest of sequential scan, (covering)
// index scan, and two-index intersection, and per join the cheaper of
// index nested-loop and hash join over all left-deep join orders. Because
// plan choice takes a minimum over paths that share indices, index benefits
// interact exactly as they do in a real optimizer — which is the property
// WFIT's interaction machinery (IBG, doi, stable partitions) exists to
// handle.
package cost

import (
	"math"
	"sync"

	"repro/internal/catalog"
	"repro/internal/index"
	"repro/internal/stmt"
)

// Params holds the cost-model constants, all in page-read units.
type Params struct {
	// RandomFetch is the cost of fetching one heap row through an index.
	RandomFetch float64
	// CPUPerRow is the per-row processing cost (scan filter, hash probe).
	CPUPerRow float64
	// ProbeCost is the cost to traverse an index from root to leaf.
	ProbeCost float64
	// UpdateRowCost is the heap write cost per updated row.
	UpdateRowCost float64
	// MaintPerRow is the per-row maintenance cost for each index whose
	// key contains a modified column.
	MaintPerRow float64
	// CreateLeafFactor scales index leaf pages into build cost (sort and
	// write passes) on top of one base-table scan.
	CreateLeafFactor float64
	// DropCost is the flat cost to drop any index; its smallness relative
	// to creation costs is what makes δ asymmetric.
	DropCost float64
	// MaxPermutedTables bounds exhaustive join-order enumeration; larger
	// queries fall back to the listed table order.
	MaxPermutedTables int
}

// DefaultParams returns the parameter set used throughout the experiments.
func DefaultParams() Params {
	return Params{
		RandomFetch:       1.0,
		CPUPerRow:         0.002,
		ProbeCost:         2.0,
		UpdateRowCost:     1.0,
		MaintPerRow:       3.0,
		CreateLeafFactor:  2.0,
		DropCost:          1.0,
		MaxPermutedTables: 5,
	}
}

// Model is the what-if cost model over a catalog and an index registry.
// Model is read-only after construction and safe for concurrent use.
type Model struct {
	cat *catalog.Catalog
	reg *index.Registry
	p   Params
}

// NewModel builds a cost model.
func NewModel(cat *catalog.Catalog, reg *index.Registry, p Params) *Model {
	return &Model{cat: cat, reg: reg, p: p}
}

// Catalog returns the underlying catalog.
func (m *Model) Catalog() *catalog.Catalog { return m.cat }

// Registry returns the index registry the model resolves IDs against.
func (m *Model) Registry() *index.Registry { return m.reg }

// Params returns the model constants.
func (m *Model) Params() Params { return m.p }

// Cost returns the estimated cost of s under configuration cfg.
func (m *Model) Cost(s *stmt.Statement, cfg index.Set) float64 {
	c, _ := m.CostUsed(s, cfg)
	return c
}

// CostUsed returns the estimated cost of s under cfg together with the set
// of indices the chosen plan depends on (including indices that only incur
// maintenance cost for updates). The used set U satisfies the index
// benefit graph property: Cost(s, X) == Cost(s, U) for every U ⊆ X ⊆ cfg.
func (m *Model) CostUsed(s *stmt.Statement, cfg index.Set) (float64, index.Set) {
	if s.Kind == stmt.Update {
		return m.updateCost(s, cfg)
	}
	return m.queryCost(s, cfg)
}

// Relevant reports whether the index could influence the cost of s: it
// must live on a table the statement accesses.
func (m *Model) Relevant(s *stmt.Statement, id index.ID) bool {
	return s.HasTable(m.reg.Get(id).Table)
}

// RestrictConfig drops from cfg every index irrelevant to s. The cost
// model guarantees Cost(s, cfg) == Cost(s, RestrictConfig(s, cfg)). When
// every member is relevant — the common case for IBG probes, whose
// configurations are subsets of an already-restricted root — cfg itself
// is returned and nothing is allocated.
func (m *Model) RestrictConfig(s *stmt.Statement, cfg index.Set) index.Set {
	relevant := 0
	cfg.Each(func(id index.ID) {
		if m.Relevant(s, id) {
			relevant++
		}
	})
	if relevant == cfg.Len() {
		return cfg
	}
	keep := make([]index.ID, 0, relevant)
	cfg.Each(func(id index.ID) {
		if m.Relevant(s, id) {
			keep = append(keep, id)
		}
	})
	return index.NewSet(keep...)
}

// accessResult describes the outcome of scanning or probing one table.
type accessResult struct {
	cost float64
	rows float64 // output cardinality after all predicates
	used []index.ID
}

// tableIndexes resolves the members of cfg that live on the given table,
// appending into buf (reused across calls by the pooled plan context).
func (m *Model) tableIndexes(cfg index.Set, table string, buf []*index.Index) []*index.Index {
	out := buf[:0]
	cfg.Each(func(id index.ID) {
		def := m.reg.Get(id)
		if def.Table == table {
			out = append(out, def)
		}
	})
	return out
}

// matchPreds computes how selective an index scan over idx can be, given
// the table's predicates. B-tree matching rules: consecutive leading key
// columns consume equality predicates; the first range predicate consumes
// one more column and stops the match. Returns the combined selectivity of
// the matched predicates and their count (sel=1, n=0 when unusable).
func matchPreds(idx *index.Index, preds []stmt.Pred) (sel float64, matched int) {
	return matchPredCols(idx.Columns, preds)
}

// matchPredCols is matchPreds over a bare key-column slice, so callers
// matching a suffix of an index key need not materialize a scratch Index.
func matchPredCols(cols []string, preds []stmt.Pred) (sel float64, matched int) {
	sel = 1.0
	for _, col := range cols {
		var hit *stmt.Pred
		for i := range preds {
			if preds[i].Column == col {
				hit = &preds[i]
				break
			}
		}
		if hit == nil {
			return sel, matched
		}
		sel *= hit.Selectivity
		matched++
		if !hit.Eq {
			return sel, matched // range predicate ends the key match
		}
	}
	return sel, matched
}

// scanTable prices the cheapest standalone access to a table: sequential
// scan, single index scan (covering or fetching), covering-only full index
// scan, or two-index intersection. pc only supplies reusable scratch.
func (m *Model) scanTable(s *stmt.Statement, table string, avail []*index.Index, pc *planContext) accessResult {
	t := m.cat.MustTable(table)
	view := s.View(table)
	preds := view.Preds
	selAll := view.Selectivity
	needed := view.Needed
	rows := t.Rows

	best := accessResult{
		cost: t.Pages() + rows*m.p.CPUPerRow,
		rows: rows * selAll,
	}

	usable := pc.usable[:0]

	for _, idx := range avail {
		sel, matched := matchPreds(idx, preds)
		covering := idx.Covers(needed)
		if matched > 0 {
			leafScan := sel * idx.LeafPages
			var c float64
			if covering {
				c = m.p.ProbeCost + leafScan + sel*rows*m.p.CPUPerRow
			} else {
				c = m.p.ProbeCost + leafScan + sel*rows*m.p.RandomFetch
			}
			if c < best.cost {
				best = accessResult{cost: c, rows: rows * selAll, used: []index.ID{idx.ID}}
			}
			usable = append(usable, scored{idx, sel, matched, leafScan})
		} else if covering {
			// Index-only full scan: cheaper than a heap scan when the
			// key is narrower than the row.
			c := m.p.ProbeCost + idx.LeafPages + rows*m.p.CPUPerRow
			if c < best.cost {
				best = accessResult{cost: c, rows: rows * selAll, used: []index.ID{idx.ID}}
			}
		}
	}

	// Two-index intersection: scan both leaf ranges, intersect RID sets,
	// fetch only rows matching both predicates.
	for i := 0; i < len(usable); i++ {
		for j := i + 1; j < len(usable); j++ {
			a, b := usable[i], usable[j]
			if a.idx.LeadingColumn() == b.idx.LeadingColumn() {
				continue // same predicate: no extra filtering power
			}
			combined := a.sel * b.sel
			c := 2*m.p.ProbeCost + a.leafScan + b.leafScan +
				rows*(a.sel+b.sel)*m.p.CPUPerRow +
				rows*combined*m.p.RandomFetch
			if c < best.cost {
				best = accessResult{
					cost: c,
					rows: rows * selAll,
					used: []index.ID{a.idx.ID, b.idx.ID},
				}
			}
		}
	}
	pc.usable = usable
	return best
}

// probeTable prices one index nested-loop probe into table via joinCol.
// Index key columns after the join column may consume further predicates.
// ok is false when no index leads with the join column.
func (m *Model) probeTable(s *stmt.Statement, table, joinCol string, avail []*index.Index) (perProbe, rowsPerProbe float64, used []index.ID, ok bool) {
	t := m.cat.MustTable(table)
	col, found := t.Column(joinCol)
	if !found {
		return 0, 0, nil, false
	}
	preds := s.TablePreds(table)
	selAll := s.PredSelectivity(table)
	needed := s.NeededColumns(table)
	matchRows := t.Rows / math.Max(col.Distinct, 1)

	bestCost := math.Inf(1)
	var bestUsed []index.ID
	for _, idx := range avail {
		if idx.LeadingColumn() != joinCol {
			continue
		}
		// Predicates matched by key columns after the join column cut
		// down the rows that must be fetched per probe.
		extraSel, _ := matchPredCols(idx.Columns[1:], preds)
		fetched := matchRows * extraSel
		var c float64
		if idx.Covers(needed) {
			c = m.p.ProbeCost + fetched*m.p.CPUPerRow
		} else {
			c = m.p.ProbeCost + fetched*m.p.RandomFetch
		}
		if c < bestCost {
			bestCost = c
			bestUsed = []index.ID{idx.ID}
		}
	}
	if math.IsInf(bestCost, 1) {
		return 0, 0, nil, false
	}
	return bestCost, math.Max(matchRows*selAll, 1e-9), bestUsed, true
}

// joinDistinct returns the distinct count of the join column on the given
// table, used for equi-join cardinality estimation.
func (m *Model) joinDistinct(table, column string) float64 {
	t := m.cat.MustTable(table)
	if c, ok := t.Column(column); ok {
		return math.Max(c.Distinct, 1)
	}
	return 1
}

// joinSide is one end of a join predicate, resolved once per cost call:
// the table position, the distinct count of its join column, and the
// index nested-loop probe into the table via that column.
type joinSide struct {
	pos   int
	col   string
	d     float64
	probe probeResult
}

// joinLink is a join predicate resolved to table positions within one
// cost call, so the join-order search compares small integers and reads
// precomputed distinct counts and probe options instead of hashing table
// and column names.
type joinLink struct {
	a, b joinSide
}

// planContext holds the per-table work of one cost call — resolved
// candidate indexes, scan results, join links — indexed by table
// position, plus the join-order search state. Everything the search
// touches is a flat slice. Contexts are pooled and reused across what-if
// optimizations.
type planContext struct {
	tables []string
	avail  [][]*index.Index // resolved per table position, backing reused
	scans  []accessResult
	links  []joinLink

	usable   []scored   // scanTable scratch
	order    []int      // permutation scratch
	inPlan   []bool     // membership of the current plan prefix
	used     []index.ID // used indices of the current prefix, as a stack
	best     []index.ID // used set of the best order so far
	bestCost float64
}

// scored is scanTable's per-index evaluation record.
type scored struct {
	idx      *index.Index
	sel      float64
	matched  int
	leafScan float64
}

var planContextPool = sync.Pool{New: func() any { return &planContext{} }}

func acquirePlanContext(tables []string) *planContext {
	pc := planContextPool.Get().(*planContext)
	n := len(tables)
	pc.tables = tables
	for len(pc.avail) < n {
		pc.avail = append(pc.avail, nil)
	}
	if cap(pc.scans) < n {
		pc.scans = make([]accessResult, n)
		pc.inPlan = make([]bool, n)
	}
	pc.scans = pc.scans[:n]
	pc.inPlan = pc.inPlan[:n]
	clear(pc.inPlan)
	for i := 0; i < n; i++ {
		pc.avail[i] = pc.avail[i][:0]
	}
	pc.links = pc.links[:0]
	pc.order = pc.order[:0]
	pc.used = pc.used[:0]
	pc.best = pc.best[:0]
	pc.bestCost = math.Inf(1)
	return pc
}

type probeResult struct {
	perProbe float64
	used     []index.ID
	ok       bool
}

// resolveSide resolves one end of a join predicate. The probe option of
// a (table, column) pair is priced once per call: a later link on the
// same pair shares it.
func (pc *planContext) resolveSide(m *Model, s *stmt.Statement, ti int, col string) joinSide {
	for _, l := range pc.links {
		if l.a.pos == ti && l.a.col == col {
			return l.a
		}
		if l.b.pos == ti && l.b.col == col {
			return l.b
		}
	}
	perProbe, _, used, ok := m.probeTable(s, pc.tables[ti], col, pc.avail[ti])
	return joinSide{
		pos:   ti,
		col:   col,
		d:     m.joinDistinct(pc.tables[ti], col),
		probe: probeResult{perProbe: perProbe, used: used, ok: ok},
	}
}

// queryCost prices a query by minimizing over left-deep join orders.
func (m *Model) queryCost(s *stmt.Statement, cfg index.Set) (float64, index.Set) {
	tables := s.Tables
	pc := acquirePlanContext(tables)
	defer planContextPool.Put(pc)

	if len(tables) == 1 {
		pc.avail[0] = m.tableIndexes(cfg, tables[0], pc.avail[0])
		r := m.scanTable(s, tables[0], pc.avail[0], pc)
		return r.cost + r.rows*m.p.CPUPerRow, index.NewSet(r.used...)
	}

	// Resolve candidate indexes, scans, and join links with their
	// distinct counts and probe options per table position up front.
	// Everything is a pure function of the statement and configuration,
	// so the search below does no hashing.
	for i, t := range tables {
		pc.avail[i] = m.tableIndexes(cfg, t, pc.avail[i])
		pc.scans[i] = m.scanTable(s, t, pc.avail[i], pc)
	}
	pos := func(t string) int {
		for i, x := range tables {
			if x == t {
				return i
			}
		}
		return -1
	}
	for i := range s.Joins {
		j := &s.Joins[i]
		a, b := pos(j.LeftTable), pos(j.RightTable)
		if a < 0 || b < 0 {
			continue // a dangling join can never connect an order
		}
		sideA := pc.resolveSide(m, s, a, j.LeftColumn)
		sideB := pc.resolveSide(m, s, b, j.RightColumn)
		pc.links = append(pc.links, joinLink{a: sideA, b: sideB})
	}

	for i := range tables {
		pc.order = append(pc.order, i)
	}
	if len(tables) <= m.p.MaxPermutedTables {
		m.searchOrders(pc, 0, 0, 0, 0)
	} else {
		// Listed order only.
		var cost, rows float64
		nUsed, ok := 0, true
		for k, ti := range pc.order {
			if cost, rows, nUsed, ok = m.enter(pc, k, ti, cost, rows, nUsed); !ok {
				break
			}
			pc.inPlan[ti] = true
		}
		if ok {
			m.offerOrder(pc, cost, rows, nUsed)
		}
	}
	if math.IsInf(pc.bestCost, 1) {
		// No connected order: price the cross product pessimistically.
		var total, rows float64 = 0, 1
		var used []index.ID
		for i := range tables {
			r := &pc.scans[i]
			total += r.cost
			rows *= math.Max(r.rows, 1)
			used = append(used, r.used...)
		}
		return total + rows*m.p.CPUPerRow, index.NewSet(used...)
	}
	return pc.bestCost, index.NewSet(pc.best...)
}

// searchOrders enumerates the left-deep join orders extending the plan
// prefix pc.order[:k] depth-first, in the order of the classic in-place
// swap permutation: at depth k, each of pc.order[k:] is swapped into
// position k in turn. cost, rows and nUsed describe the prefix, so every
// prefix is priced once for all orders that share it, and a prefix that
// cannot be connected is dropped with all its completions (the full
// order would be rejected at that same step).
func (m *Model) searchOrders(pc *planContext, k int, cost, rows float64, nUsed int) {
	order := pc.order
	for i := k; i < len(order); i++ {
		order[k], order[i] = order[i], order[k]
		ti := order[k]
		if c, r, nu, ok := m.enter(pc, k, ti, cost, rows, nUsed); ok {
			if k == len(order)-1 {
				m.offerOrder(pc, c, r, nu)
			} else {
				pc.inPlan[ti] = true
				m.searchOrders(pc, k+1, c, r, nu)
				pc.inPlan[ti] = false
			}
		}
		order[k], order[i] = order[i], order[k]
	}
}

// offerOrder records a complete order as the best so far when its join
// cost beats the best plan cost, which includes the final output-row
// charge.
func (m *Model) offerOrder(pc *planContext, cost, rows float64, nUsed int) {
	if cost < pc.bestCost {
		pc.bestCost = cost + rows*m.p.CPUPerRow
		pc.best = append(pc.best[:0], pc.used[:nUsed]...)
	}
}

// enter prices table position ti as the (k+1)-th table of a left-deep
// plan whose first k tables are marked in pc.inPlan, with running cost,
// output rows, and pc.used[:nUsed] as the prefix's used indices. The
// first table enters by its standalone scan; each later one by the
// cheaper of index nested-loop (driven by a connecting join predicate)
// or hash join. ok is false when no join predicate connects ti to the
// prefix. The step's used indices are pushed onto pc.used.
func (m *Model) enter(pc *planContext, k, ti int, cost, rows float64, nUsed int) (float64, float64, int, bool) {
	inner := &pc.scans[ti]
	if k == 0 {
		pc.used = append(pc.used[:0], inner.used...)
		return inner.cost, inner.rows, len(pc.used), true
	}
	// Find a join predicate connecting ti to the tables already in the
	// plan. Links are in s.Joins order, preserving the first-match rule.
	var side *joinSide
	for li := range pc.links {
		l := &pc.links[li]
		var other int
		switch ti {
		case l.a.pos:
			other, side = l.b.pos, &l.a
		case l.b.pos:
			other, side = l.a.pos, &l.b
		default:
			continue
		}
		if pc.inPlan[other] {
			break
		}
		side = nil
	}
	if side == nil {
		return 0, 0, 0, false
	}

	stepCost := math.Inf(1)
	var stepUsed []index.ID
	// Index nested-loop join.
	if pr := &side.probe; pr.ok {
		if c := rows * pr.perProbe; c < stepCost {
			stepCost = c
			stepUsed = pr.used
		}
	}
	// Hash join: scan the inner once, hash both sides.
	hashCost := inner.cost + (rows+inner.rows)*m.p.CPUPerRow
	if hashCost < stepCost {
		stepCost = hashCost
		stepUsed = inner.used
	}
	pc.used = append(pc.used[:nUsed], stepUsed...)
	return cost + stepCost, math.Max(rows*inner.rows/side.d, 1e-9), len(pc.used), true
}

// updateCost prices an update: locate the affected rows via the cheapest
// access path, write the heap, and maintain every configured index whose
// key contains a modified column.
func (m *Model) updateCost(s *stmt.Statement, cfg index.Set) (float64, index.Set) {
	table := s.UpdateTable()
	t := m.cat.MustTable(table)
	pc := acquirePlanContext(s.Tables)
	defer planContextPool.Put(pc)
	avail := m.tableIndexes(cfg, table, pc.avail[0])
	pc.avail[0] = avail

	where := m.scanTable(s, table, avail, pc)
	affected := t.Rows * s.PredSelectivity(table)
	total := where.cost + affected*m.p.UpdateRowCost
	used := append([]index.ID(nil), where.used...)

	for _, idx := range avail {
		if containsAny(idx.Columns, s.SetColumns) {
			total += m.p.ProbeCost + affected*m.p.MaintPerRow
			used = append(used, idx.ID)
		}
	}
	return total, index.NewSet(used...)
}

// containsAny reports whether cols and targets share any element.
func containsAny(cols, targets []string) bool {
	for _, c := range cols {
		for _, t := range targets {
			if c == t {
				return true
			}
		}
	}
	return false
}
