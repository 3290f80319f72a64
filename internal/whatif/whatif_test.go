package whatif

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/stmt"
	"repro/internal/workload"
)

func setup(t testing.TB) (*Optimizer, index.ID, index.ID) {
	t.Helper()
	cat, _ := datagen.Build()
	reg := index.NewRegistry()
	m := cost.NewModel(cat, reg, cost.DefaultParams())
	ship := reg.Intern(cost.BuildIndexProto(cat, m.Params(), "tpch.lineitem", []string{"l_shipdate"}))
	trade := reg.Intern(cost.BuildIndexProto(cat, m.Params(), "tpce.trade", []string{"t_dts"}))
	return New(m), ship, trade
}

func query() *stmt.Statement {
	return &stmt.Statement{
		ID: 1, Kind: stmt.Query,
		Tables: []string{"tpch.lineitem"},
		Preds:  []stmt.Pred{{Table: "tpch.lineitem", Column: "l_shipdate", Selectivity: 0.01}},
	}
}

// TestEveryProbeIsACall checks the accounting: with no memo, every probe
// is one optimizer call, repeated or not, and a repeat returns the same
// cost.
func TestEveryProbeIsACall(t *testing.T) {
	o, ship, _ := setup(t)
	q1, q2 := query(), query()
	q2.Preds[0].Selectivity = 0.05
	cfg := index.NewSet(ship)
	c1 := o.Cost(q1, cfg)
	if c2 := o.Cost(q1, cfg); c1 != c2 {
		t.Fatalf("repeat probe changed the answer: %v vs %v", c1, c2)
	}
	o.Cost(q2, cfg)
	if o.Calls() != 3 {
		t.Fatalf("calls=%d after three probes", o.Calls())
	}
}

// TestCostUsedMatchesRestrictedModel checks that the optimizer, which
// prices the configuration it is given, answers exactly as the model
// does under the configuration restricted to the statement's tables: the
// same cost bits and the same used set, over random configurations that
// mix relevant indices with indices on tables the statement does not
// read.
func TestCostUsedMatchesRestrictedModel(t *testing.T) {
	cat, joins := datagen.Build()
	reg := index.NewRegistry()
	m := cost.NewModel(cat, reg, cost.DefaultParams())
	o := New(m)
	opts := workload.DefaultOptions()
	opts.Phases, opts.PerPhase = 4, 25
	opts.Profile = workload.ProfileWriteHeavy
	wl := workload.Generate(cat, joins, opts)
	ext := cost.NewExtractor(m)
	all := index.EmptySet
	for _, s := range wl.Statements {
		all = all.Union(ext.Extract(s))
	}
	ids := all.IDs()
	rng := rand.New(rand.NewSource(17))
	irrelevant := 0
	for _, s := range wl.Statements {
		for trial := 0; trial < 4; trial++ {
			var pick []index.ID
			for _, id := range ids {
				if rng.Float64() < 0.3 {
					pick = append(pick, id)
				}
			}
			cfg := index.NewSet(pick...)
			restricted := m.RestrictConfig(s, cfg)
			irrelevant += cfg.Len() - restricted.Len()
			wantCost, wantUsed := m.CostUsed(s, restricted)
			calls := o.Calls()
			gotCost, gotUsed := o.CostUsed(s, cfg)
			if math.Float64bits(gotCost) != math.Float64bits(wantCost) || !gotUsed.Equal(wantUsed) {
				t.Fatalf("statement %d under %v: optimizer (%v, %v), restricted model (%v, %v)",
					s.ID, cfg, gotCost, gotUsed, wantCost, wantUsed)
			}
			if o.Calls() != calls+1 {
				t.Fatalf("one probe counted %d calls", o.Calls()-calls)
			}
		}
	}
	if irrelevant == 0 {
		t.Fatal("no configuration held an index irrelevant to its statement")
	}
}

func TestCostUsedConsistent(t *testing.T) {
	o, ship, _ := setup(t)
	q := query()
	c, used := o.CostUsed(q, index.NewSet(ship))
	if !used.Contains(ship) {
		t.Fatalf("selective index unused: %v", used)
	}
	if c != o.Cost(q, index.NewSet(ship)) {
		t.Fatalf("Cost and CostUsed disagree")
	}
}

func TestResetStats(t *testing.T) {
	o, ship, _ := setup(t)
	o.Cost(query(), index.NewSet(ship))
	o.ResetStats()
	if o.Calls() != 0 {
		t.Fatalf("ResetStats did not zero the counter")
	}
	o.Cost(query(), index.NewSet(ship))
	if o.Calls() != 1 {
		t.Fatalf("calls=%d after one probe past ResetStats", o.Calls())
	}
}

func TestConcurrentProbesConsistent(t *testing.T) {
	o, ship, trade := setup(t)
	q := query()
	cfgs := []index.Set{
		index.EmptySet,
		index.NewSet(ship),
		index.NewSet(trade),
		index.NewSet(ship, trade),
	}
	want := make([]float64, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = o.Model().Cost(q, o.Model().RestrictConfig(q, cfg))
	}

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (seed + i) % len(cfgs)
				if got := o.Cost(q, cfgs[k]); got != want[k] {
					errs <- fmt.Sprintf("cfg %d: got %v want %v", k, got, want[k])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if o.Calls() != 8*500 {
		t.Fatalf("probe accounting lost events: calls=%d", o.Calls())
	}
}
