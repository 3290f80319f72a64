// What-if explorer: a tour of the DBMS substrate underneath WFIT.
//
// This example prices one join query under several hypothetical index
// configurations through the what-if optimizer, builds the query's Index
// Benefit Graph, and prints the benefit and degree-of-interaction
// analysis that drives WFIT's candidate selection and stable partition.
//
// Run with: go run ./examples/whatif_explorer
package main

import (
	"fmt"
	"log"

	"repro/internal/cost"
	"repro/internal/datagen"
	"repro/internal/ibg"
	"repro/internal/index"
	"repro/internal/sqlmini"
	"repro/internal/whatif"
)

func main() {
	cat, _ := datagen.Build()
	reg := index.NewRegistry()
	model := cost.NewModel(cat, reg, cost.DefaultParams())
	optimizer := whatif.New(model)

	parser := sqlmini.NewParser(cat)
	q, err := parser.Parse(`SELECT count(*) FROM tpch.orders o, tpch.lineitem l
		WHERE o.o_orderdate BETWEEN 600 AND 612
		  AND l.l_shipdate BETWEEN 800 AND 815
		  AND l.l_orderkey = o.o_orderkey`)
	if err != nil {
		log.Fatal(err)
	}
	q.ID = 1

	intern := func(table string, cols ...string) index.ID {
		return reg.Intern(cost.BuildIndexProto(cat, model.Params(), table, cols))
	}
	ixDate := intern("tpch.orders", "o_orderdate")
	ixShip := intern("tpch.lineitem", "l_shipdate")
	ixJoin := intern("tpch.lineitem", "l_orderkey")
	ixComp := intern("tpch.lineitem", "l_orderkey", "l_shipdate")

	fmt.Println("query:", q.SQL)
	fmt.Println("\nwhat-if costs under hypothetical configurations:")
	configs := []struct {
		name string
		cfg  index.Set
	}{
		{"no indices", index.EmptySet},
		{"orders(o_orderdate)", index.NewSet(ixDate)},
		{"lineitem(l_orderkey)", index.NewSet(ixJoin)},
		{"both", index.NewSet(ixDate, ixJoin)},
		{"both + lineitem(l_shipdate)", index.NewSet(ixDate, ixJoin, ixShip)},
		{"orders(o_orderdate) + composite", index.NewSet(ixDate, ixComp)},
		{"everything", index.NewSet(ixDate, ixJoin, ixShip, ixComp)},
	}
	for _, c := range configs {
		cst, used := model.CostUsed(q, c.cfg)
		fmt.Printf("  %-34s cost=%10.0f  used=%s\n", c.name, cst, used.Format(reg))
	}

	// The IBG encodes all of the above (and every other subset) from a
	// handful of optimizer calls.
	optimizer.ResetStats()
	g := ibg.Build(optimizer, q, index.NewSet(ixDate, ixShip, ixJoin, ixComp))
	fmt.Printf("\nindex benefit graph: %d nodes (= %d what-if calls) cover all %d configurations\n",
		g.NodeCount(), optimizer.Calls(), 1<<g.Top().Len())

	// One statistics pass yields every benefit and doi; indices outside
	// the used union never change the cost, so their benefit is 0.
	benefits, interactions := g.Stats(0, 1)
	benefit := make(map[index.ID]float64, len(benefits))
	for i, id := range g.UsedUnion().IDs() {
		benefit[id] = benefits[i]
	}
	fmt.Println("\nper-index maximum benefit (βn of chooseCands):")
	g.Top().Each(func(id index.ID) {
		fmt.Printf("  %-38s %12.0f\n", reg.Get(id).Key(), benefit[id])
	})

	fmt.Println("\ndegrees of interaction (doi) — the raw material of stable partitions:")
	for _, in := range interactions {
		fmt.Printf("  %-38s × %-38s doi=%.0f\n",
			reg.Get(in.A).Key(), reg.Get(in.B).Key(), in.Doi)
	}
	fmt.Println("\nindices with doi = 0 between them can be tuned in separate WFA parts;")
	fmt.Println("interacting ones must share a part (or the interaction is knowingly dropped).")
}
