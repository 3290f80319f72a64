package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/datagen"
	"repro/internal/ibg"
	"repro/internal/index"
	"repro/internal/sqlmini"
	"repro/internal/tuner"
	"repro/internal/whatif"
)

// tuneEnv is everything one pass of the tune loop needs, built fresh per
// pass: that construction is what setup_s times.
type tuneEnv struct {
	in     tuneInput
	parser *sqlmini.Parser
	reg    *index.Registry
	model  *cost.Model
	opt    *whatif.Optimizer
	eng    tuner.Engine
}

func setupTune(name string, slot int, sc scale) (*tuneEnv, error) {
	cat, joins := datagen.Build()
	reg := index.NewRegistry()
	model := cost.NewModel(cat, reg, cost.DefaultParams())
	opt := whatif.New(model)
	eng, err := tuner.New(tuner.KindWFIT, opt, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return &tuneEnv{
		in:     genTune(cat, joins, name, slot, sc),
		parser: sqlmini.NewParser(cat),
		reg:    reg, model: model, opt: opt, eng: eng,
	}, nil
}

// tunePass is one pass of the tune loop over the whole input.
type tunePass struct {
	traced     bool
	stmts      int
	parseErrs  int
	tunerTime  time.Duration // Σ per-statement tuner time
	p50, p99   float64       // tuner time of an ordinary statement, us
	wide       int           // injected wide joins
	wideP50    float64       // tuner time of a wide join, ms
	allocBytes uint64
	liveHeap   uint64 // untraced passes: live heap with only this pass's state held

	// Exact outputs; every pass of a run must reproduce them.
	totalWork   float64
	trajectory  string
	whatifCalls int64
	capped      int
	status      tuner.Status

	// Traced passes only.
	parseUS, analyzeUS, recommendUS, adoptUS, priceUS, nodes []float64
	run, finish                                              time.Duration
}

// runTunePass drives the engine over the input the way the paper's AUTO
// DBA does (Figure 12): per statement parse, AnalyzeQuery, Recommend, and
// adopt the recommendation (SetMaterialized); then price the statement
// under the adopted configuration with the cost model directly, outside
// the engine's optimizer, so whatif.calls counts only the tuner's probes.
func runTunePass(env *tuneEnv, rec *recorder, spanBase int) *tunePass {
	traced := rec != nil
	p := &tunePass{traced: traced}
	mat := index.EmptySet
	var traj digester
	var ordinaryUS, wideMS []float64 // tuner time of each ordinary statement, each wide join
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i, sql := range env.in.SQL {
		id := spanBase + i
		var t1, t2, t3 time.Time
		t0 := time.Now()
		st, err := env.parser.Parse(sql)
		if traced {
			t1 = time.Now()
		}
		if err != nil {
			p.parseErrs++
			continue
		}
		st.ID = i + 1
		env.eng.AnalyzeQuery(st)
		if traced {
			t2 = time.Now()
		}
		r := env.eng.Recommend()
		if traced {
			t3 = time.Now()
		}
		prev, changed := mat, !r.Equal(mat)
		if changed {
			mat = r
		}
		env.eng.SetMaterialized(mat)
		t4 := time.Now()
		d := t4.Sub(t0)
		p.stmts++
		p.tunerTime += d
		if env.in.Wide[i] {
			wideMS = append(wideMS, us(d)/1e3)
		} else {
			ordinaryUS = append(ordinaryUS, us(d))
		}
		// The benchmark's own bookkeeping runs after the statement clock
		// has stopped: the transition cost and the trajectory digest.
		if changed {
			p.totalWork += env.reg.Delta(prev, mat)
			traj.num(int64(i))
			mat.Each(func(x index.ID) {
				def := env.reg.Get(x)
				traj.str(def.Table)
				for _, c := range def.Columns {
					traj.str(c)
				}
			})
		}
		nodes := env.eng.LastIBGNodes()
		if nodes >= ibg.MaxNodes {
			p.capped++
		}
		var t5 time.Time
		if traced {
			t5 = time.Now()
		}
		c, _ := env.model.CostUsed(st, mat)
		p.totalWork += c
		if traced {
			t6 := time.Now()
			root := rec.add(id, "stmt", -1, t0, t4)
			rec.add(id, "sqlmini.parse", root, t0, t1)
			rec.add(id, "core.analyze", root, t1, t2)
			rec.add(id, "core.recommend", root, t2, t3)
			rec.add(id, "core.adopt", root, t3, t4)
			rec.add(id, "cost.price", -1, t5, t6)
			p.parseUS = append(p.parseUS, us(t1.Sub(t0)))
			p.analyzeUS = append(p.analyzeUS, us(t2.Sub(t1)))
			p.recommendUS = append(p.recommendUS, us(t3.Sub(t2)))
			p.adoptUS = append(p.adoptUS, us(t4.Sub(t3)))
			p.priceUS = append(p.priceUS, us(t6.Sub(t5)))
			p.nodes = append(p.nodes, float64(nodes))
			run, finish := env.eng.LastAnalysisDurations()
			p.run += run
			p.finish += finish
		}
	}
	runtime.ReadMemStats(&ms1)
	p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	p.wide = len(wideMS)
	p.p50, p.p99 = quantile(ordinaryUS, 0.5), quantile(ordinaryUS, 0.99)
	p.wideP50 = quantile(wideMS, 0.5)
	traj.num(int64(math.Float64bits(p.totalWork)))
	p.trajectory = traj.sum()
	p.whatifCalls = env.opt.Calls()
	p.status = env.eng.Status()
	return p
}

func (p *tunePass) exact() exact {
	return exact{math.Float64bits(p.totalWork), p.trajectory, p.whatifCalls, p.capped, p.status.Repartitions}
}

// extraSetups is how many set-ups a run times beyond the one per pass, so
// that setup_s is a median of several even when few passes fit.
const extraSetups = 4

func runTune(name string, slots []int, sc scale, seconds float64, traced bool, spansPath string) (*result, error) {
	res := newResult(name)
	var setups []float64
	var env *tuneEnv
	setup := func(slot int) error {
		runtime.GC()
		t := time.Now()
		e, err := setupTune(name, slot, sc)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
		env = e
		return nil
	}
	for k := 0; k < extraSetups; k++ {
		if err := setup(slots[k%len(slots)]); err != nil {
			return nil, err
		}
	}

	inputs := newPassInputs(name, sc)
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	var passes []*tunePass
	spanBase := 0
	start := time.Now()
	for k := 0; ; k++ {
		slot := passSlot(slots, k, traced)
		if err := setup(slot); err != nil {
			return nil, err
		}
		inputs.input(res, k+1, slot, env.in.digest(name, slot))
		var r *recorder
		if traced && k%2 == 1 {
			r = rec
		}
		p := runTunePass(env, r, spanBase)
		spanBase += len(env.in.SQL)
		if r == nil {
			p.liveHeap = liveHeap()
			runtime.KeepAlive(env)
		}
		inputs.output(res, k+1, slot, p.traced, p.exact())
		res.attempted += int64(len(env.in.SQL))
		res.failed += int64(p.parseErrs)
		passes = append(passes, p)
		if enoughPasses(len(passes), traced, start, seconds) {
			break
		}
	}
	res.digest = inputs.digest()

	first := passes[0]
	var plain, tr []*tunePass
	for _, p := range passes {
		if p.traced {
			tr = append(tr, p)
		} else {
			plain = append(plain, p)
		}
	}
	res.notes = append(res.notes, fmt.Sprintf("passes: %d untraced, %d traced; %d statements per pass (%d wide joins)",
		len(plain), len(tr), first.stmts+first.parseErrs, first.wide),
		"recommendation trajectory digest of the first pass: "+first.trajectory)

	// Each metric is the median over untraced passes of the pass's own
	// value, so one pass disturbed by the host does not move it.
	var p50, p99, wide, perS, alloc, heap, plainTime []float64
	for _, p := range plain {
		p50 = append(p50, p.p50)
		p99 = append(p99, p.p99)
		wide = append(wide, p.wideP50)
		perS = append(perS, float64(p.stmts)/p.tunerTime.Seconds())
		alloc = append(alloc, float64(p.allocBytes)/float64(p.stmts))
		heap = append(heap, float64(p.liveHeap)/(1<<20))
		plainTime = append(plainTime, p.tunerTime.Seconds())
	}
	res.setE2E("stmt_p50_us", median(p50), len(p50))
	res.setE2E("stmt_p99_us", median(p99), len(p99))
	res.setE2E("stmts_per_s", median(perS), len(perS))
	if name == "tune-adhoc" {
		res.setE2E("wide_p50_ms", median(wide), len(wide))
	}
	work, nw := inputs.totalWork()
	res.setE2E("total_work", work, nw)
	res.setE2E("alloc_bytes_per_stmt", median(alloc), len(alloc))
	res.setE2E("live_heap_mb", median(heap), len(heap))
	res.setE2E("setup_s", median(setups), len(setups))
	res.setE2E("failed_frac", ratio(float64(res.failed), float64(res.attempted)), int(res.attempted))

	res.setLayer("core.repartitions", float64(first.status.Repartitions), 1)
	res.setLayer("core.universe_size", float64(first.status.UniverseSize), 1)
	res.setLayer("core.states", float64(first.status.States), 1)
	res.setLayer("ibg.capped_stmts", float64(first.capped), 1)
	res.setLayer("whatif.calls", float64(first.whatifCalls), 1)
	if !traced {
		return res, nil
	}

	var parse, analyze, recommend, adopt, price, parseTot, runTot, finishTot, trTime []float64
	for _, p := range tr {
		parse = append(parse, p.parseUS...)
		analyze = append(analyze, p.analyzeUS...)
		recommend = append(recommend, p.recommendUS...)
		adopt = append(adopt, p.adoptUS...)
		price = append(price, p.priceUS...)
		parseTot = append(parseTot, sum(p.parseUS)/1e3)
		runTot = append(runTot, float64(p.run.Microseconds())/1e3)
		finishTot = append(finishTot, float64(p.finish.Microseconds())/1e3)
		trTime = append(trTime, p.tunerTime.Seconds())
	}
	nodes := append([]float64(nil), tr[0].nodes...)
	res.setLayer("sqlmini.parse_us.p50", quantile(parse, 0.5), len(parse))
	res.setLayer("sqlmini.parse_ms.total", median(parseTot), len(parseTot))
	res.setLayer("core.analyze_us.p50", quantile(analyze, 0.5), len(analyze))
	res.setLayer("core.analyze_us.p99", quantile(analyze, 0.99), len(analyze))
	res.setLayer("core.run_ms.total", median(runTot), len(runTot))
	res.setLayer("core.finish_ms.total", median(finishTot), len(finishTot))
	res.setLayer("core.run_share", ratio(median(runTot), median(runTot)+median(finishTot)), len(runTot))
	res.setLayer("core.recommend_us.p50", quantile(recommend, 0.5), len(recommend))
	res.setLayer("core.adopt_us.p50", quantile(adopt, 0.5), len(adopt))
	res.setLayer("ibg.nodes.p50", quantile(nodes, 0.5), len(nodes))
	res.setLayer("ibg.nodes.p99", quantile(nodes, 0.99), len(nodes))
	res.setLayer("cost.price_us.p50", quantile(price, 0.5), len(price))
	res.setLayer("obs.overhead_pct", (ratio(median(trTime), median(plainTime))-1)*100, len(trTime))
	self := rec.selfTimes()
	var total time.Duration
	for _, s := range rec.spans {
		if s.Name == "stmt" {
			total += s.End - s.Start
		}
	}
	covered := total - self["stmt"]
	res.setLayer("obs.span_coverage_pct", ratio(float64(covered), float64(total))*100, len(tr))
	res.notes = append(res.notes, fmt.Sprintf("span self times (all traced passes): parse %.1fms analyze %.1fms recommend %.1fms adopt %.1fms, uncovered stmt time %.1fms",
		ms64(self["sqlmini.parse"]), ms64(self["core.analyze"]), ms64(self["core.recommend"]), ms64(self["core.adopt"]), ms64(self["stmt"])))
	return res, rec.write(spansPath)
}

func ms64(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
