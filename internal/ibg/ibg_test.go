package ibg

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/stmt"
	"repro/internal/whatif"
)

// testSetup builds the shared catalog, model, optimizer, and a pool of
// interned indices for IBG tests.
func testSetup(t testing.TB) (*whatif.Optimizer, *cost.Model, []index.ID) {
	t.Helper()
	cat, _ := datagen.Build()
	reg := index.NewRegistry()
	m := cost.NewModel(cat, reg, cost.DefaultParams())
	mk := func(table string, cols ...string) index.ID {
		return reg.Intern(cost.BuildIndexProto(cat, m.Params(), table, cols))
	}
	ids := []index.ID{
		mk("tpch.lineitem", "l_shipdate"),
		mk("tpch.lineitem", "l_extendedprice"),
		mk("tpch.lineitem", "l_orderkey"),
		mk("tpch.lineitem", "l_orderkey", "l_shipdate"),
		mk("tpch.orders", "o_orderdate"),
		mk("tpch.orders", "o_orderkey"),
		mk("tpce.trade", "t_dts"), // irrelevant to the test statements
	}
	return whatif.New(m), m, ids
}

func joinQuery() *stmt.Statement {
	return &stmt.Statement{
		ID: 1, Kind: stmt.Query,
		Tables: []string{"tpch.orders", "tpch.lineitem"},
		Preds: []stmt.Pred{
			{Table: "tpch.orders", Column: "o_orderdate", Selectivity: 0.002},
			{Table: "tpch.lineitem", Column: "l_shipdate", Selectivity: 0.008},
			{Table: "tpch.lineitem", Column: "l_extendedprice", Selectivity: 0.02},
		},
		Joins: []stmt.Join{{
			LeftTable: "tpch.lineitem", LeftColumn: "l_orderkey",
			RightTable: "tpch.orders", RightColumn: "o_orderkey",
		}},
	}
}

func updateStmt() *stmt.Statement {
	return &stmt.Statement{
		ID: 2, Kind: stmt.Update,
		Tables:     []string{"tpch.lineitem"},
		Preds:      []stmt.Pred{{Table: "tpch.lineitem", Column: "l_extendedprice", Selectivity: 0.0005}},
		SetColumns: []string{"l_tax", "l_shipdate"},
	}
}

// TestIBGCostMatchesWhatIf is the central contract: for every subset of
// the candidates, the IBG lookup must equal a direct what-if optimization.
func TestIBGCostMatchesWhatIf(t *testing.T) {
	opt, m, ids := testSetup(t)
	for _, s := range []*stmt.Statement{joinQuery(), updateStmt()} {
		cands := index.NewSet(ids...)
		g := Build(opt, s, cands)
		rng := rand.New(rand.NewSource(71))
		for trial := 0; trial < 200; trial++ {
			var sub []index.ID
			for _, id := range ids {
				if rng.Intn(2) == 0 {
					sub = append(sub, id)
				}
			}
			cfg := index.NewSet(sub...)
			got := g.Cost(cfg)
			want := m.Cost(s, m.RestrictConfig(s, cfg))
			if math.Abs(got-want) > 1e-9*(1+want) {
				t.Fatalf("stmt %d cfg %v: IBG=%v direct=%v", s.ID, cfg, got, want)
			}
		}
	}
}

func TestIBGTopRestrictedToRelevant(t *testing.T) {
	opt, m, ids := testSetup(t)
	q := joinQuery()
	g := Build(opt, q, index.NewSet(ids...))
	reg := m.Registry()
	g.Top().Each(func(id index.ID) {
		if tbl := reg.Get(id).Table; tbl != "tpch.orders" && tbl != "tpch.lineitem" {
			t.Errorf("irrelevant index %v in IBG top", reg.Get(id))
		}
	})
	if g.NodeCount() == 0 {
		t.Fatalf("empty IBG")
	}
}

// TestIBGNodeCountIsWhatIfCalls verifies the overhead accounting: building
// a graph from a cold cache performs exactly NodeCount optimizer calls.
func TestIBGNodeCountIsWhatIfCalls(t *testing.T) {
	opt, _, ids := testSetup(t)
	q := joinQuery()
	opt.ResetStats()
	g := Build(opt, q, index.NewSet(ids...))
	if got, want := opt.Calls(), int64(g.NodeCount()); got != want {
		t.Fatalf("what-if calls = %d, nodes = %d", got, want)
	}
	// Rebuilding hits the cache entirely.
	opt.ResetStats()
	_ = Build(opt, q, index.NewSet(ids...))
	if opt.Calls() != 0 {
		t.Fatalf("rebuild performed %d fresh calls", opt.Calls())
	}
}

// TestDOISymmetry checks doi(a,b) == doi(b,a) (Section 2 notes this
// follows from the definition): the doi Stats reports for a normalized
// pair matches the enumeration in either argument order.
func TestDOISymmetry(t *testing.T) {
	opt, _, ids := testSetup(t)
	for _, s := range []*stmt.Statement{joinQuery(), updateStmt()} {
		g := Build(opt, s, index.NewSet(ids...))
		_, ins := g.Stats(-1, 1)
		for _, in := range ins {
			ab := oracleDOI(g, in.A, in.B)
			ba := oracleDOI(g, in.B, in.A)
			if math.Abs(ab-ba) > 1e-9 || math.Abs(in.Doi-ab) > 1e-9 {
				t.Fatalf("doi asymmetric: stats %v, (a,b) %v, (b,a) %v", in.Doi, ab, ba)
			}
		}
	}
}

// doiOf returns the doi Stats reports for the pair (a, b), 0 if absent.
func doiOf(ins []Interaction, a, b index.ID) float64 {
	if a > b {
		a, b = b, a
	}
	for _, in := range ins {
		if in.A == a && in.B == b {
			return in.Doi
		}
	}
	return 0
}

// TestDOIDetectsIntersectionInteraction: two single-column indices on the
// same table that can be intersected must have positive doi.
func TestDOIDetectsIntersectionInteraction(t *testing.T) {
	opt, _, ids := testSetup(t)
	q := joinQuery()
	g := Build(opt, q, index.NewSet(ids...))
	// ids[0] = lineitem(l_shipdate), ids[1] = lineitem(l_extendedprice).
	if !g.UsedUnion().Contains(ids[0]) || !g.UsedUnion().Contains(ids[1]) {
		t.Skipf("intersection candidates unused in this plan space")
	}
	_, ins := g.Stats(0, 1)
	if d := doiOf(ins, ids[0], ids[1]); d <= 0 {
		t.Fatalf("expected positive doi for intersectable indices, got %v", d)
	}
}

func TestDOIZeroForUnusedIndex(t *testing.T) {
	opt, _, ids := testSetup(t)
	q := joinQuery()
	g := Build(opt, q, index.NewSet(ids...))
	unused := ids[6] // tpce.trade index, irrelevant
	_, ins := g.Stats(-1, 1)
	for _, in := range ins {
		if in.A == unused || in.B == unused {
			t.Fatalf("unused index listed as interacting: %+v", in)
		}
		if in.A >= in.B {
			t.Fatalf("pair not normalized (doi(a,a) must not appear): %+v", in)
		}
	}
}

// TestMaxBenefitMatchesEnumeration compares the benefits of Stats (the
// max_X benefit_q({a}, X) statistic) against brute-force maximization
// over all contexts.
func TestMaxBenefitMatchesEnumeration(t *testing.T) {
	opt, m, ids := testSetup(t)
	for _, s := range []*stmt.Statement{joinQuery(), updateStmt()} {
		g := Build(opt, s, index.NewSet(ids...))
		relevant := g.Top().IDs()
		benefits, _ := g.Stats(0, 1)
		for i, a := range g.UsedUnion().IDs() {
			want := math.Inf(-1)
			rest := index.NewSet(relevant...).Remove(a)
			forEachSubset(rest, func(x index.Set) {
				b := m.Cost(s, x) - m.Cost(s, x.Add(a))
				if b > want {
					want = b
				}
			})
			if got := benefits[i]; math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
				t.Fatalf("stmt %d Stats benefit of %v = %v, brute force = %v", s.ID, a, got, want)
			}
		}
	}
}

func forEachSubset(s index.Set, visit func(index.Set)) {
	ids := s.IDs()
	for mask := 0; mask < 1<<len(ids); mask++ {
		var cur []index.ID
		for i := range ids {
			if mask&(1<<i) != 0 {
				cur = append(cur, ids[i])
			}
		}
		visit(index.NewSet(cur...))
	}
}

// TestDOIMatchesEnumeration compares the IBG doi against brute force over
// the full relevant context space.
func TestDOIMatchesEnumeration(t *testing.T) {
	opt, m, ids := testSetup(t)
	q := joinQuery()
	g := Build(opt, q, index.NewSet(ids...))
	used := g.UsedUnion().IDs()
	relevant := index.NewSet(g.Top().IDs()...)
	_, ins := g.Stats(-1, 1)
	for i := 0; i < len(used); i++ {
		for j := i + 1; j < len(used); j++ {
			a, b := used[i], used[j]
			want := 0.0
			ctx := relevant.Remove(a).Remove(b)
			forEachSubset(ctx, func(x index.Set) {
				v := math.Abs(m.Cost(q, x) - m.Cost(q, x.Add(a)) -
					m.Cost(q, x.Add(b)) + m.Cost(q, x.Add(a).Add(b)))
				if v > want {
					want = v
				}
			})
			got := doiOf(ins, a, b)
			if math.Abs(got-want) > 1e-6*(1+want) {
				t.Fatalf("DOI(%v,%v) = %v, brute force = %v", a, b, got, want)
			}
		}
	}
}

// TestBenefitSign: benefits are positive for helpful indices on queries
// and negative for maintained indices on updates.
func TestBenefitSign(t *testing.T) {
	opt, _, ids := testSetup(t)
	q := joinQuery()
	g := Build(opt, q, index.NewSet(ids...))
	if b := g.Benefit(ids[0], index.EmptySet); b <= 0 {
		t.Fatalf("selective index benefit = %v, want > 0", b)
	}
	u := updateStmt()
	gu := Build(opt, u, index.NewSet(ids...))
	// ids[0] = lineitem(l_shipdate): l_shipdate is modified, so the index
	// must be maintained; without helping the WHERE clause its benefit is
	// negative.
	if b := gu.Benefit(ids[0], index.EmptySet); b >= 0 {
		t.Fatalf("maintained index benefit = %v, want < 0", b)
	}
}

func TestInteractionsDeterministicOrder(t *testing.T) {
	opt, _, ids := testSetup(t)
	q := joinQuery()
	g := Build(opt, q, index.NewSet(ids...))
	_, first := g.Stats(0, 1)
	_, second := g.Stats(0, 2)
	if len(first) != len(second) {
		t.Fatalf("non-deterministic interaction count")
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("non-deterministic interaction order at %d", i)
		}
		if first[i].A >= first[i].B {
			t.Fatalf("interaction pair not normalized: %+v", first[i])
		}
	}
}

func TestEmptyCandidates(t *testing.T) {
	opt, m, _ := testSetup(t)
	q := joinQuery()
	g := Build(opt, q, index.EmptySet)
	if g.NodeCount() != 1 {
		t.Fatalf("empty-candidate IBG has %d nodes", g.NodeCount())
	}
	if got, want := g.EmptyCost(), m.Cost(q, index.EmptySet); got != want {
		t.Fatalf("EmptyCost = %v, want %v", got, want)
	}
}

// TestParallelBuildIdenticalToSerial checks BuildWorkers' contract: the
// graph produced with a worker pool is indistinguishable from a serial
// build — same nodes, same probe answers, same statistics.
func TestParallelBuildIdenticalToSerial(t *testing.T) {
	o, _, ids := testSetup(t)
	cands := index.NewSet(ids...)
	for _, s := range []*stmt.Statement{joinQuery(), updateStmt()} {
		serial := BuildWorkers(o, s, cands, 1)
		parallel := BuildWorkers(o, s, cands, 8)

		if serial.NodeCount() != parallel.NodeCount() {
			t.Fatalf("stmt %d: node counts differ: %d vs %d", s.ID, serial.NodeCount(), parallel.NodeCount())
		}
		if serial.Truncated() != parallel.Truncated() {
			t.Fatalf("stmt %d: truncation differs", s.ID)
		}
		if !serial.UsedUnion().Equal(parallel.UsedUnion()) {
			t.Fatalf("stmt %d: used unions differ: %v vs %v", s.ID, serial.UsedUnion(), parallel.UsedUnion())
		}
		u := serial.UsedUnion().IDs()
		if len(u) > 16 {
			t.Fatalf("test statement too wide for exhaustive check")
		}
		for mask := 0; mask < 1<<len(u); mask++ {
			var cur []index.ID
			for j := range u {
				if mask&(1<<j) != 0 {
					cur = append(cur, u[j])
				}
			}
			cfg := index.NewSet(cur...)
			if cs, cp := serial.Cost(cfg), parallel.Cost(cfg); cs != cp {
				t.Fatalf("stmt %d cfg %v: cost %v vs %v", s.ID, cfg, cs, cp)
			}
		}
		bs, is := serial.Stats(1e-9, 1)
		bp, ip := parallel.Stats(1e-9, 8)
		for k, a := range u {
			if bs[k] != bp[k] {
				t.Fatalf("stmt %d idx %d: max benefit %v vs %v", s.ID, a, bs[k], bp[k])
			}
		}
		if len(is) != len(ip) {
			t.Fatalf("stmt %d: interaction counts differ: %d vs %d", s.ID, len(is), len(ip))
		}
		for k := range is {
			if is[k] != ip[k] {
				t.Fatalf("stmt %d: interaction %d differs: %+v vs %+v", s.ID, k, is[k], ip[k])
			}
		}
	}
}

// TestCostMaskFuncMatchesCost checks the mask-space fast path of
// CostProbe against the set-based probe interface over every subset of
// an id slice that mixes used, unused, and absent indices, with a fresh
// translation table for each probe.
func TestCostMaskFuncMatchesCost(t *testing.T) {
	o, _, ids := testSetup(t)
	q := joinQuery()
	g := Build(o, q, index.NewSet(ids...))
	probe, _ := g.CostProbe(ids, make([]uint32, len(ids)))
	for mask := 0; mask < 1<<len(ids); mask++ {
		var cur []index.ID
		for j := range ids {
			if mask&(1<<j) != 0 {
				cur = append(cur, ids[j])
			}
		}
		if got, want := probe(uint32(mask)), g.Cost(index.NewSet(cur...)); got != want {
			t.Fatalf("mask %b: fast path %v, set path %v", mask, got, want)
		}
	}
}

// TestCostProbeProjection checks the mask-space probe of CostProbe
// against the set-based Cost over every subset of an id slice that mixes
// used, unused, and absent (irrelevant-table) indices, and its projection
// contract: the relevant mask flags exactly the ids inside the used
// union, and the probe is constant across each coset of the irrelevant
// bits — the property that lets WFA price one representative per coset.
func TestCostProbeProjection(t *testing.T) {
	o, _, ids := testSetup(t)
	q := joinQuery()
	g := Build(o, q, index.NewSet(ids...))
	xlat := make([]uint32, len(ids))
	probe, relevant := g.CostProbe(ids, xlat)
	for i, id := range ids {
		if got, want := relevant&(1<<i) != 0, g.UsedUnion().Contains(id); got != want {
			t.Fatalf("relevant bit %d = %v, used union membership %v", i, got, want)
		}
	}
	for mask := uint32(0); mask < 1<<len(ids); mask++ {
		got := probe(mask)
		if proj := probe(mask & relevant); got != proj {
			t.Fatalf("mask %b: probe %v differs from projected probe %v", mask, got, proj)
		}
		var cur []index.ID
		for j := range ids {
			if mask&(1<<j) != 0 {
				cur = append(cur, ids[j])
			}
		}
		if want := g.Cost(index.NewSet(cur...)); got != want {
			t.Fatalf("mask %b: probe %v, set path %v", mask, got, want)
		}
	}
}

// TestReleaseRecyclesMemo builds, probes, and releases graphs in a loop —
// the per-statement lifecycle WFIT drives — checking that probe answers
// stay correct as the pooled, epoch-stamped memo buffers are recycled
// across statements, and that a released graph still answers correctly
// through the uncached path.
func TestReleaseRecyclesMemo(t *testing.T) {
	o, _, ids := testSetup(t)
	stmts := []*stmt.Statement{joinQuery(), updateStmt()}
	for round := 0; round < 6; round++ {
		s := stmts[round%len(stmts)]
		g := Build(o, s, index.NewSet(ids...))
		want := make(map[uint32]float64)
		full := g.fullMask()
		for m := uint32(0); m <= full; m++ {
			want[m] = g.find(m).cost
			if got := g.CostMask(m); got != want[m] {
				t.Fatalf("round %d mask %b: memoized %v, walk %v", round, m, got, want[m])
			}
		}
		// Probe twice: the second pass is served from the recycled memo.
		for m := uint32(0); m <= full; m++ {
			if got := g.CostMask(m); got != want[m] {
				t.Fatalf("round %d mask %b: second probe %v, want %v", round, m, got, want[m])
			}
		}
		g.Release()
		for m := uint32(0); m <= full; m++ {
			if got := g.CostMask(m); got != want[m] {
				t.Fatalf("round %d mask %b: post-release probe %v, want %v", round, m, got, want[m])
			}
		}
	}
}

// TestConcurrentProbesAreRaceFree hammers one graph from many goroutines;
// run under -race this validates the atomic cost memo.
func TestConcurrentProbesAreRaceFree(t *testing.T) {
	o, _, ids := testSetup(t)
	q := joinQuery()
	g := Build(o, q, index.NewSet(ids...))
	want := make([]float64, 64)
	for m := range want {
		want[m] = g.find(uint32(m) & g.fullMask()).cost
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				m := uint32((seed*31 + i)) % 64
				if got := g.CostMask(m & g.fullMask()); got != want[m] {
					panic("nondeterministic cost under concurrency")
				}
			}
		}(w)
	}
	wg.Wait()
}
