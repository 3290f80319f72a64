package datagen

import "repro/internal/stmt"

// TPCCJoinChain returns a k-way TPC-C join query (1 ≤ k ≤ 5) along
// orderline–orders–customer–district–warehouse, with two range
// predicates (selectivities 0.01 and 0.02) per table. Its IBG over the
// extracted candidates widens with k; at k = 5 it reaches the node cap,
// the shape of the wide statements that dominate ad-hoc tuning time.
// Benchmarks and differential tests of the what-if and IBG layers share
// it so that they measure the same statement.
func TPCCJoinChain(k int) *stmt.Statement {
	chain := []struct{ table, c1, c2 string }{
		{"tpcc.orderline", "ol_delivery_d", "ol_amount"},
		{"tpcc.orders", "o_entry_d", "o_ol_cnt"},
		{"tpcc.customer", "c_balance", "c_since"},
		{"tpcc.district", "d_ytd", "d_next_o_id"},
		{"tpcc.warehouse", "w_tax", "w_ytd"},
	}
	joins := []stmt.Join{
		{LeftTable: "tpcc.orderline", LeftColumn: "ol_o_id", RightTable: "tpcc.orders", RightColumn: "o_id"},
		{LeftTable: "tpcc.orders", LeftColumn: "o_c_id", RightTable: "tpcc.customer", RightColumn: "c_id"},
		{LeftTable: "tpcc.customer", LeftColumn: "c_d_id", RightTable: "tpcc.district", RightColumn: "d_id"},
		{LeftTable: "tpcc.district", LeftColumn: "d_w_id", RightTable: "tpcc.warehouse", RightColumn: "w_id"},
	}
	s := &stmt.Statement{ID: k, Kind: stmt.Query, Joins: joins[:k-1]}
	for _, c := range chain[:k] {
		s.Tables = append(s.Tables, c.table)
		s.Preds = append(s.Preds,
			stmt.Pred{Table: c.table, Column: c.c1, Selectivity: 0.01},
			stmt.Pred{Table: c.table, Column: c.c2, Selectivity: 0.02})
	}
	return s
}
