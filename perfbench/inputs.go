package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/stmt"
	"repro/internal/workload"
)

// inputSlots is the number of distinct inputs per workload: --seed picks
// the slots of a run (runSlots), and every slot's input digest is pinned
// in digests.json, so each run's exact input is checked, whatever its
// seed.
const inputSlots = 64

// scale sizes a workload's input: full is what the benchmark runs, small
// the reduced input of its own tests.
type scale struct {
	Name string
	// Tune: statements of the profile stream (8 phases) and injected
	// wide joins (tune-adhoc only).
	TunePerPhase int
	WideJoins    int
	// Serve: the rate ladder one ladder pass steps through, and the DBA's
	// cadence in statements per session.
	Ladder  []step
	Cadence int
}

// step is one rung of the serve-dba rate ladder: a total offered rate
// over both sessions, held for a fixed number of statements.
type step struct {
	Name  string
	Rate  float64 // statements per second, both sessions together
	Stmts int     // statements per session
}

var (
	full = scale{
		Name: "full", TunePerPhase: 200, WideJoins: 24, Cadence: 250,
		Ladder: []step{
			{"light", 400, 500},
			{"busy", 800, 500},
			{"saturate", 20000, 2500},
		},
	}
	small = scale{
		Name: "small", TunePerPhase: 12, WideJoins: 2, Cadence: 40,
		Ladder: []step{
			{"light", 400, 40},
			{"busy", 800, 40},
			{"saturate", 20000, 40},
		},
	}
)

// testSlot is the one input slot the tests run at the small scale.
const testSlot = 1

// tuneInput is the statement stream of a tune-* workload: SQL text in
// arrival order, with the injected wide joins flagged (they are scored
// separately from ordinary statements).
type tuneInput struct {
	SQL  []string
	Wide []bool
}

// vote is one DBA action of serve-dba: after statement After (1-based,
// per session) is acknowledged, the DBA reads the recommendation, casts a
// positive vote for an index on (Table, Column), and accepts.
type vote struct {
	After  int
	Table  string
	Column string
}

// serveInput is the two sessions' statement streams and DBA schedules.
type serveInput struct {
	SQL   [2][]string
	Votes [2][]vote
}

// tuneProfile maps a tune-* workload onto its workload profile.
var tuneProfile = map[string]string{
	"tune-adhoc":       workload.ProfileAdhoc,
	"tune-write-heavy": workload.ProfileWriteHeavy,
}

// Template plans are pinned: the workload generator always runs with the
// same seeds, and --seed redraws the constants of every statement (see
// render). Whole plans differ so much from seed to seed (which tables,
// which join shapes, how wide each statement's IBG gets) that the spread
// between seeds would swamp any change worth measuring; fresh constants
// over a fixed plan keep runs comparable while no two seeds share an
// input.
const (
	tunePlanSeed  = 42
	servePlanSeed = 1000
	widePlanSeed  = 7919
)

// genTune builds a tune-* input: the profile's 8-phase stream, plus for
// tune-adhoc sc.WideJoins 5-way TPC-C joins spread evenly through it.
func genTune(cat *catalog.Catalog, joins []datagen.Join, name string, slot int, sc scale) tuneInput {
	wl := workload.Generate(cat, joins, workload.Options{
		Phases: 8, PerPhase: sc.TunePerPhase, Seed: tunePlanSeed,
		QueryTemplates: 10, UpdateTemplates: 4, Profile: tuneProfile[name],
	})
	rng := rand.New(rand.NewSource(int64(slot)))
	var wide []*stmt.Statement
	if name == "tune-adhoc" {
		plan := rand.New(rand.NewSource(widePlanSeed))
		for k := 0; k < sc.WideJoins; k++ {
			wide = append(wide, wideJoin(cat, datagen.JoinsFor(joins, datagen.TPCC), plan))
		}
	}
	var in tuneInput
	n := len(wl.Statements)
	next := 0
	for i, s := range wl.Statements {
		// Wide join k goes before statement (k+1)·n/(W+1).
		for next < len(wide) && i == (next+1)*n/(len(wide)+1) {
			in.SQL = append(in.SQL, render(cat, wide[next], rng))
			in.Wide = append(in.Wide, true)
			next++
		}
		in.SQL = append(in.SQL, render(cat, s, rng))
		in.Wide = append(in.Wide, false)
	}
	return in
}

// wideJoin draws one 5-way join over a connected subtree of the TPC-C
// join graph with two range predicates on every table: each table then
// contributes single-column, composite and join-probe candidates, which
// is what makes the statement's IBG wide.
func wideJoin(cat *catalog.Catalog, edges []datagen.Join, rng *rand.Rand) *stmt.Statement {
	s := &stmt.Statement{Kind: stmt.Query, Tables: []string{edges[rng.Intn(len(edges))].LeftTable}}
	in := map[string]bool{s.Tables[0]: true}
	for len(s.Tables) < 5 {
		var frontier []datagen.Join
		for _, e := range edges {
			if in[e.LeftTable] != in[e.RightTable] {
				frontier = append(frontier, e)
			}
		}
		e := frontier[rng.Intn(len(frontier))]
		t := e.LeftTable
		if in[t] {
			t = e.RightTable
		}
		in[t] = true
		s.Tables = append(s.Tables, t)
		s.Joins = append(s.Joins, stmt.Join{LeftTable: e.LeftTable, LeftColumn: e.LeftColumn, RightTable: e.RightTable, RightColumn: e.RightColumn})
	}
	for _, t := range s.Tables {
		cols := cat.MustTable(t).Columns()
		for _, ci := range rng.Perm(len(cols))[:2] {
			sel := math.Exp(math.Log(0.001) + rng.Float64()*(math.Log(0.05)-math.Log(0.001)))
			s.Preds = append(s.Preds, stmt.Pred{Table: t, Column: cols[ci].Name, Selectivity: sel})
		}
	}
	out := s.Tables[rng.Intn(len(s.Tables))]
	s.Output = []stmt.OutputCol{{Table: out, Column: cat.MustTable(out).Columns()[0].Name}}
	return s
}

// render writes s as SQL in the dialect sqlmini parses back, drawing its
// constants from rng: a range predicate keeps its column, its width is
// jittered ×[0.61, 1.65] and its position redrawn; an equality gets a
// fresh value from the column's domain.
func render(cat *catalog.Catalog, s *stmt.Statement, rng *rand.Rand) string {
	alias := make(map[string]string, len(s.Tables))
	for i, t := range s.Tables {
		alias[t] = fmt.Sprintf("t%d", i)
	}
	pred := func(p stmt.Pred, ref string) string {
		col, _ := cat.MustTable(p.Table).Column(p.Column)
		if p.Eq {
			return fmt.Sprintf("%s = %.6g", ref, col.Min+rng.Float64()*(col.Max-col.Min))
		}
		sel := math.Min(math.Max(p.Selectivity*math.Exp(rng.Float64()-0.5), 1e-6), 0.5)
		span := (col.Max - col.Min) * sel
		lo := col.Min + rng.Float64()*math.Max(col.Max-col.Min-span, 0)
		return fmt.Sprintf("%s BETWEEN %.6g AND %.6g", ref, lo, lo+span)
	}
	if s.Kind == stmt.Update {
		set := make([]string, len(s.SetColumns))
		for i, c := range s.SetColumns {
			set[i] = fmt.Sprintf("%s = %s + 0.000001", c, c)
		}
		return fmt.Sprintf("UPDATE %s SET %s WHERE %s", s.UpdateTable(), strings.Join(set, ", "), pred(s.Preds[0], s.Preds[0].Column))
	}
	out := []string{"count(*)"}
	if len(s.Output) > 0 {
		out = out[:0]
		for _, oc := range s.Output {
			out = append(out, alias[oc.Table]+"."+oc.Column)
		}
	}
	from := make([]string, len(s.Tables))
	for i, t := range s.Tables {
		from[i] = t + " " + alias[t]
	}
	var where []string
	for _, p := range s.Preds {
		where = append(where, pred(p, alias[p.Table]+"."+p.Column))
	}
	for _, j := range s.Joins {
		where = append(where, fmt.Sprintf("%s.%s = %s.%s", alias[j.LeftTable], j.LeftColumn, alias[j.RightTable], j.RightColumn))
	}
	sql := fmt.Sprintf("SELECT %s FROM %s", strings.Join(out, ", "), strings.Join(from, ", "))
	if len(where) > 0 {
		sql += " WHERE " + strings.Join(where, " AND ")
	}
	return sql
}

// genServe builds the serve-dba input: per session, the paper's phased
// stream long enough for one ladder pass, and a DBA vote after every
// sc.Cadence statements on the leading predicate column of the statement
// just acknowledged.
func genServe(cat *catalog.Catalog, joins []datagen.Join, slot int, sc scale) serveInput {
	n := 0
	for _, st := range sc.Ladder {
		n += st.Stmts
	}
	var in serveInput
	for k := 0; k < 2; k++ {
		wl := workload.Generate(cat, joins, workload.Options{
			Phases: 8, PerPhase: (n + 7) / 8, Seed: int64(servePlanSeed + k),
			QueryTemplates: 10, UpdateTemplates: 4,
		})
		rng := rand.New(rand.NewSource(int64(2*slot + k)))
		stmts := wl.Statements[:n]
		for i, s := range stmts {
			in.SQL[k] = append(in.SQL[k], render(cat, s, rng))
			if (i+1)%sc.Cadence != 0 {
				continue
			}
			// Every generated statement has a predicate; the walk back is
			// only a guard.
			for j := i; j >= 0; j-- {
				if p := stmts[j].Preds; len(p) > 0 {
					in.Votes[k] = append(in.Votes[k], vote{After: i + 1, Table: p[0].Table, Column: p[0].Column})
					break
				}
			}
		}
	}
	return in
}

// digester hashes an input as length-prefixed fields, so no two distinct
// inputs share an encoding.
type digester struct{ b []byte }

func (d *digester) str(s string) {
	d.b = binary.AppendUvarint(d.b, uint64(len(s)))
	d.b = append(d.b, s...)
}

func (d *digester) num(v int64) { d.b = binary.AppendVarint(d.b, v) }

func (d *digester) sum() string {
	h := sha256.Sum256(d.b)
	return hex.EncodeToString(h[:12])
}

func (in tuneInput) digest(name string, slot int) string {
	var d digester
	d.str(name)
	d.num(int64(slot))
	for i, s := range in.SQL {
		d.str(s)
		if in.Wide[i] {
			d.num(1)
		} else {
			d.num(0)
		}
	}
	// The DBA of the tune loop adopts every recommendation (AUTO).
	d.str("dba:adopt-every-statement")
	return d.sum()
}

func (in serveInput) digest(slot int, sc scale) string {
	var d digester
	d.str("serve-dba")
	d.num(int64(slot))
	for _, st := range sc.Ladder {
		d.str(st.Name)
		d.num(int64(st.Rate))
		d.num(int64(st.Stmts))
	}
	for k := 0; k < 2; k++ {
		for _, s := range in.SQL[k] {
			d.str(s)
		}
		for _, v := range in.Votes[k] {
			d.num(int64(v.After))
			d.str(v.Table)
			d.str(v.Column)
		}
		d.str("dba:read-vote-accept")
	}
	return d.sum()
}

//go:embed digests.json
var pinnedJSON []byte

// pinKey names one pinned digest.
func pinKey(workload string, sc scale, slot int) string {
	return fmt.Sprintf("%s/%s/%d", workload, sc.Name, slot)
}

// pinned returns the recorded digest for a workload input, or "" when
// none is recorded.
func pinned(key string) string {
	var m map[string]string
	if err := json.Unmarshal(pinnedJSON, &m); err != nil {
		return ""
	}
	return m[key]
}

// inputDigest generates one workload input and returns its digest.
func inputDigest(cat *catalog.Catalog, joins []datagen.Join, name string, slot int, sc scale) string {
	if name == "serve-dba" {
		return genServe(cat, joins, slot, sc).digest(slot, sc)
	}
	return genTune(cat, joins, name, slot, sc).digest(name, slot)
}

// writePins prints digests.json content: every slot of every workload at
// the full scale, and the tests' slot at the small scale. Run
// `go run . -pin > digests.json` when a change to the workload generator
// is meant to change what the benchmark measures.
func writePins() []byte {
	cat, joins := datagen.Build()
	m := map[string]string{}
	for _, w := range workloadNames {
		for slot := 0; slot < inputSlots; slot++ {
			m[pinKey(w, full, slot)] = inputDigest(cat, joins, w, slot, full)
		}
		m[pinKey(w, small, testSlot)] = inputDigest(cat, joins, w, testSlot, small)
	}
	out, _ := json.MarshalIndent(m, "", "  ") // a map of strings always marshals
	return append(out, '\n')
}
