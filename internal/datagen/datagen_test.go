package datagen

import (
	"strings"
	"testing"

	"repro/internal/catalog"
)

func TestBuildAllDatasets(t *testing.T) {
	cat, joins := Build()
	if got := len(cat.Schemas()); got != 4 {
		t.Fatalf("schemas = %d, want 4", got)
	}
	if len(joins) == 0 {
		t.Fatalf("no joins")
	}
	// The benchmark hosts ~2.9GB of base data; ours should be in band.
	gb := cat.TotalBytes() / (1 << 30)
	if gb < 1.5 || gb > 6 {
		t.Fatalf("total size %.2f GB out of band", gb)
	}
}

func TestJoinGraphIntegrity(t *testing.T) {
	cat, joins := Build()
	for _, j := range joins {
		lt, ok := cat.Table(j.LeftTable)
		if !ok {
			t.Fatalf("join references unknown table %s", j.LeftTable)
		}
		rt, ok := cat.Table(j.RightTable)
		if !ok {
			t.Fatalf("join references unknown table %s", j.RightTable)
		}
		if !lt.HasColumn(j.LeftColumn) {
			t.Fatalf("join column %s.%s missing", j.LeftTable, j.LeftColumn)
		}
		if !rt.HasColumn(j.RightColumn) {
			t.Fatalf("join column %s.%s missing", j.RightTable, j.RightColumn)
		}
		// Joins are declared with the left side inside the dataset.
		if !strings.Contains(j.LeftTable, ".") {
			t.Fatalf("unqualified join table %s", j.LeftTable)
		}
	}
}

func TestJoinsForFiltersBySchema(t *testing.T) {
	_, joins := Build()
	for _, ds := range AllDatasets {
		sub := JoinsFor(joins, ds)
		if len(sub) == 0 {
			t.Fatalf("dataset %s has no joins", ds)
		}
		for _, j := range sub {
			if !strings.HasPrefix(j.LeftTable, ds+".") {
				t.Fatalf("JoinsFor(%s) returned %s", ds, j.LeftTable)
			}
		}
	}
}

func TestEveryTableHasPredicateColumns(t *testing.T) {
	cat, _ := Build()
	for _, tbl := range cat.Tables() {
		if tbl.Rows < 100 {
			continue // tiny dimension tables need no indices
		}
		numeric := 0
		for _, c := range tbl.Columns() {
			if c.Distinct >= 10 && c.Width <= 16 {
				numeric++
			}
		}
		if numeric == 0 {
			t.Errorf("table %s has no predicate-worthy columns", tbl.QualifiedName())
		}
	}
}

func TestColumnDomainsSane(t *testing.T) {
	cat, _ := Build()
	for _, tbl := range cat.Tables() {
		if tbl.Rows <= 0 {
			t.Errorf("table %s has no rows", tbl.QualifiedName())
		}
		for _, c := range tbl.Columns() {
			if c.Distinct <= 0 {
				t.Errorf("%s.%s distinct = %v", tbl.QualifiedName(), c.Name, c.Distinct)
			}
			if c.Max < c.Min {
				t.Errorf("%s.%s domain inverted", tbl.QualifiedName(), c.Name)
			}
			if c.Width <= 0 {
				t.Errorf("%s.%s width = %d", tbl.QualifiedName(), c.Name, c.Width)
			}
		}
	}
}

func TestBuildDatasetUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("unknown dataset did not panic")
		}
	}()
	BuildDataset(catalog.New(), "nope")
}

func TestBuildSingleDataset(t *testing.T) {
	cat := catalog.New()
	joins := BuildDataset(cat, TPCH)
	if len(cat.TablesInSchema(TPCH)) != 8 {
		t.Fatalf("tpch tables = %d, want 8", len(cat.TablesInSchema(TPCH)))
	}
	if len(joins) != 9 {
		t.Fatalf("tpch joins = %d, want 9", len(joins))
	}
}

// TestTPCCJoinChainMatchesSchema checks that every table, predicate column
// and join of the 5-way chain exists in the TPC-C schema and join graph.
func TestTPCCJoinChainMatchesSchema(t *testing.T) {
	cat, joins := Build()
	s := TPCCJoinChain(5)
	if len(s.Tables) != 5 || len(s.Joins) != 4 || len(s.Preds) != 10 {
		t.Fatalf("chain has %d tables, %d joins, %d predicates", len(s.Tables), len(s.Joins), len(s.Preds))
	}
	for _, p := range s.Preds {
		if tb, ok := cat.Table(p.Table); !ok || !tb.HasColumn(p.Column) {
			t.Fatalf("predicate column %s.%s missing", p.Table, p.Column)
		}
	}
	declared := map[Join]bool{}
	for _, j := range JoinsFor(joins, TPCC) {
		declared[j] = true
	}
	for _, j := range s.Joins {
		if !declared[Join{j.LeftTable, j.LeftColumn, j.RightTable, j.RightColumn}] {
			t.Fatalf("join %+v is not in the TPC-C join graph", j)
		}
	}
}
