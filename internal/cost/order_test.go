package cost

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/stmt"
)

// oracleQueryCost is the join-order search the depth-first searchOrders
// replaced, kept as a test oracle: every left-deep order is priced from
// scratch by oracleContext.planOrder, visited in oraclePermute's swap
// order, with probe options and distinct counts looked up by column name
// at every step. The depth-first search must reproduce its cost bits and used set.
// connected is false when the cross-product fallback priced the query.
func (m *Model) oracleQueryCost(s *stmt.Statement, cfg index.Set) (cost float64, used index.Set, connected bool) {
	tables := s.Tables
	scratch := &planContext{}
	if len(tables) == 1 {
		avail := m.tableIndexes(cfg, tables[0], nil)
		r := m.scanTable(s, tables[0], avail, scratch)
		return r.cost + r.rows*m.p.CPUPerRow, index.NewSet(r.used...), true
	}
	o := &oracleContext{m: m, s: s, tables: tables}
	avail := make([][]*index.Index, len(tables))
	for i, t := range tables {
		avail[i] = m.tableIndexes(cfg, t, nil)
		o.scans = append(o.scans, m.scanTable(s, t, avail[i], scratch))
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
			continue
		}
		o.links = append(o.links, oracleLink{a: a, b: b, colA: j.LeftColumn, colB: j.RightColumn})
	}
	o.probes = make(map[oracleProbeKey]probeResult)
	for _, l := range o.links {
		for _, k := range []oracleProbeKey{{l.a, l.colA}, {l.b, l.colB}} {
			if _, ok := o.probes[k]; !ok {
				perProbe, _, used, ok := m.probeTable(s, tables[k.ti], k.col, avail[k.ti])
				o.probes[k] = probeResult{perProbe: perProbe, used: used, ok: ok}
			}
		}
	}

	bestCost := math.Inf(1)
	var best []index.ID
	tryOrder := func(order []int) {
		cost, rows, used, ok := o.planOrder(order)
		if ok && cost < bestCost {
			bestCost = cost + rows*m.p.CPUPerRow
			best = used
		}
	}
	order := make([]int, len(tables))
	for i := range order {
		order[i] = i
	}
	if len(tables) <= m.p.MaxPermutedTables {
		oraclePermute(order, 0, tryOrder)
	} else {
		tryOrder(order)
	}
	if math.IsInf(bestCost, 1) {
		var total, rows float64 = 0, 1
		var used []index.ID
		for i := range tables {
			r := &o.scans[i]
			total += r.cost
			rows *= math.Max(r.rows, 1)
			used = append(used, r.used...)
		}
		return total + rows*m.p.CPUPerRow, index.NewSet(used...), false
	}
	return bestCost, index.NewSet(best...), true
}

type oracleLink struct {
	a, b       int
	colA, colB string
}

type oracleProbeKey struct {
	ti  int
	col string
}

type oracleContext struct {
	m      *Model
	s      *stmt.Statement
	tables []string
	scans  []accessResult
	links  []oracleLink
	probes map[oracleProbeKey]probeResult
}

func (o *oracleContext) planOrder(order []int) (cost, rows float64, used []index.ID, ok bool) {
	first := &o.scans[order[0]]
	cost, rows = first.cost, first.rows
	used = append(used, first.used...)
	for oi := 1; oi < len(order); oi++ {
		ti := order[oi]
		joinCol := ""
		connected := false
		for _, l := range o.links {
			var other int
			var col string
			switch ti {
			case l.a:
				other, col = l.b, l.colA
			case l.b:
				other, col = l.a, l.colB
			default:
				continue
			}
			for k := 0; k < oi; k++ {
				if order[k] == other {
					joinCol, connected = col, true
					break
				}
			}
			if connected {
				break
			}
		}
		if !connected {
			return 0, 0, nil, false
		}
		d := o.m.joinDistinct(o.tables[ti], joinCol)
		stepCost := math.Inf(1)
		var stepUsed []index.ID
		if pr, found := o.probes[oracleProbeKey{ti, joinCol}]; found && pr.ok {
			if c := rows * pr.perProbe; c < stepCost {
				stepCost = c
				stepUsed = pr.used
			}
		}
		inner := &o.scans[ti]
		hashCost := inner.cost + (rows+inner.rows)*o.m.p.CPUPerRow
		if hashCost < stepCost {
			stepCost = hashCost
			stepUsed = inner.used
		}
		cost += stepCost
		used = append(used, stepUsed...)
		rows = math.Max(rows*inner.rows/d, 1e-9)
	}
	return cost, rows, used, true
}

func oraclePermute(order []int, k int, visit func([]int)) {
	if k == len(order)-1 {
		visit(order)
		return
	}
	for i := k; i < len(order); i++ {
		order[k], order[i] = order[i], order[k]
		oraclePermute(order, k+1, visit)
		order[k], order[i] = order[i], order[k]
	}
}

// randomJoinStatement draws a k-table query over the TPC-C and TPC-H join
// graphs. Connected statements grow a join tree edge by edge; otherwise
// tables are drawn freely with only the edges among them, so the join
// graph may be disconnected (the cross-product fallback). With
// bogusJoin, one extra join predicate names a column the catalog does not
// have (distinct count 1, no probe option). Candidates are extracted
// before that predicate is added, since no index can be built on it.
func randomJoinStatement(rng *rand.Rand, m *Model, edges []datagen.Join, k int, connected, bogusJoin bool) (*stmt.Statement, index.Set) {
	s := &stmt.Statement{ID: 1, Kind: stmt.Query}
	in := map[string]bool{}
	addTable := func(t string) {
		in[t] = true
		s.Tables = append(s.Tables, t)
	}
	addTable(edges[rng.Intn(len(edges))].LeftTable)
	for len(s.Tables) < k {
		var frontier []datagen.Join
		for _, e := range edges {
			if in[e.LeftTable] != in[e.RightTable] {
				frontier = append(frontier, e)
			}
		}
		if len(frontier) == 0 || !connected {
			e := edges[rng.Intn(len(edges))]
			for _, t := range []string{e.LeftTable, e.RightTable} {
				if !in[t] && len(s.Tables) < k {
					addTable(t)
				}
			}
			continue
		}
		e := frontier[rng.Intn(len(frontier))]
		if in[e.LeftTable] {
			addTable(e.RightTable)
		} else {
			addTable(e.LeftTable)
		}
		s.Joins = append(s.Joins, stmt.Join{LeftTable: e.LeftTable, LeftColumn: e.LeftColumn, RightTable: e.RightTable, RightColumn: e.RightColumn})
	}
	if !connected {
		for _, e := range edges {
			if in[e.LeftTable] && in[e.RightTable] && rng.Intn(2) == 0 {
				s.Joins = append(s.Joins, stmt.Join{LeftTable: e.LeftTable, LeftColumn: e.LeftColumn, RightTable: e.RightTable, RightColumn: e.RightColumn})
			}
		}
	}
	rng.Shuffle(len(s.Tables), func(i, j int) { s.Tables[i], s.Tables[j] = s.Tables[j], s.Tables[i] })
	for _, t := range s.Tables {
		cols := m.Catalog().MustTable(t).Columns()
		for _, ci := range rng.Perm(len(cols))[:rng.Intn(3)] {
			s.Preds = append(s.Preds, stmt.Pred{
				Table: t, Column: cols[ci].Name,
				Selectivity: math.Exp(math.Log(1e-4) + rng.Float64()*math.Log(1e4)),
				Eq:          rng.Intn(4) == 0,
			})
		}
		if rng.Intn(2) == 0 {
			s.Output = append(s.Output, stmt.OutputCol{Table: t, Column: cols[rng.Intn(len(cols))].Name})
		}
	}
	cands := NewExtractor(m).Extract(s)
	if bogusJoin && k >= 2 {
		a, b := s.Tables[rng.Intn(k)], s.Tables[rng.Intn(k)]
		s.Joins = append(s.Joins, stmt.Join{LeftTable: a, LeftColumn: "no_such_column", RightTable: b, RightColumn: "no_such_column"})
	}
	return s, cands
}

// TestJoinOrderSearchMatchesOracle is the differential test of the
// depth-first join-order search: on random 1–6-table statements and
// random configurations of their candidates, cost bits and used sets must
// equal the enumerate-and-reprice oracle's. The default model takes the
// listed-order path above MaxPermutedTables (5); a second model
// enumerates all 720 orders of 6-table statements.
func TestJoinOrderSearchMatchesOracle(t *testing.T) {
	m, _, joins := newTestModel(t)
	p6 := m.Params()
	p6.MaxPermutedTables = 6
	m6 := NewModel(m.Catalog(), m.Registry(), p6)
	edges := append(datagen.JoinsFor(joins, datagen.TPCC), datagen.JoinsFor(joins, datagen.TPCH)...)
	rng := rand.New(rand.NewSource(20250))
	var crossProducts, listed, bogus int
	for trial := 0; trial < 400; trial++ {
		k := 1 + rng.Intn(6)
		connected := rng.Intn(4) != 0
		bogusJoin := rng.Intn(5) == 0
		s, cands := randomJoinStatement(rng, m, edges, k, connected, bogusJoin)
		ids := cands.IDs()
		for c := 0; c < 6; c++ {
			var sub []index.ID
			for _, id := range ids {
				if rng.Intn(2) == 0 {
					sub = append(sub, id)
				}
			}
			cfg := index.NewSet(sub...)
			for _, mm := range []*Model{m, m6} {
				got, gotUsed := mm.CostUsed(s, cfg)
				want, wantUsed, connected := mm.oracleQueryCost(s, cfg)
				if math.Float64bits(got) != math.Float64bits(want) || !gotUsed.Equal(wantUsed) {
					t.Fatalf("trial %d (%d tables, max permuted %d): cost %v used %v, oracle %v used %v\n%+v",
						trial, k, mm.Params().MaxPermutedTables, got, gotUsed, want, wantUsed, s)
				}
				if !connected && mm == m {
					crossProducts++
				}
			}
		}
		if k > m.Params().MaxPermutedTables {
			listed++
		}
		if bogusJoin && k >= 2 {
			bogus++
		}
	}
	if crossProducts == 0 || listed == 0 || bogus == 0 {
		t.Fatalf("random statements missed a path: %d cross products, %d listed-order, %d unknown-column",
			crossProducts, listed, bogus)
	}
}

// oldSearchWideJoinAllocs is what one what-if call on the 5-way
// datagen.TPCCJoinChain under its full candidate set allocated with the
// enumerate-and-reprice search (measured with testing.AllocsPerRun; the
// allocations are the used-index slices of access paths and the returned
// set, which both searches share).
const oldSearchWideJoinAllocs = 23

// TestWideJoinWhatIfAllocs checks that the depth-first search, with its
// scratch in the pooled plan context, allocates no more per what-if call
// than the search it replaced.
func TestWideJoinWhatIfAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	m, _, _ := newTestModel(t)
	s := datagen.TPCCJoinChain(5)
	cfg := NewExtractor(m).Extract(s)
	m.CostUsed(s, cfg) // warm the plan-context pool
	got := testing.AllocsPerRun(200, func() { m.CostUsed(s, cfg) })
	if got > oldSearchWideJoinAllocs {
		t.Fatalf("5-way what-if call allocates %v times, previously %v", got, oldSearchWideJoinAllocs)
	}
}
