package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/server"
)

// ackLimit is the latency limit on a ladder step's ack p99; a step also
// fails when its last statements are acknowledged later than this (the
// shipper's backlog grew through the step).
const ackLimit = 100 * time.Millisecond

// lateLimit marks a ladder step invalid, not slow: the generator itself
// woke this much behind its schedule at p99.
const lateLimit = ackLimit / 5

var sessionNames = [2]string{"s0", "s1"}

// serveEnv is one wfit-serve instance with its two sessions, as the
// daemon runs it: fsync on, group commit of up to 64 records, a
// checkpoint every 500 statements, everything else at the defaults.
type serveEnv struct {
	in      serveInput
	dataDir string
	sv      *server.Server
	srv     *http.Server
	served  chan error
	base    string
	client  [2]*http.Client
	// rec, when set, records a span around every HTTP call. reqID[k]
	// numbers session k's calls; only one goroutine at a time calls on
	// behalf of a session, so the counters need no lock.
	rec   *recorder
	reqID [2]int
}

func setupServe(slot int, sc scale, dataDir string, metrics *obs.Registry) (*serveEnv, error) {
	cat, joins := datagen.Build()
	e := &serveEnv{in: genServe(cat, joins, slot, sc), dataDir: dataDir}
	sv, err := server.New(server.Config{DataDir: dataDir, Fsync: true, Batch: 64, CheckpointEvery: 500, Metrics: metrics})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = sv.Close() // the listen error is the one to report
		return nil, err
	}
	e.sv = sv
	e.srv = &http.Server{Handler: sv.Handler()}
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(ln) }()
	e.base = "http://" + ln.Addr().String()
	for k := range e.client {
		// One connection per session: the shipper is one log stream.
		e.client[k] = &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   60 * time.Second,
		}
		body := fmt.Sprintf(`{"name":%q}`, sessionNames[k])
		if _, err := e.call(k, "POST", "/sessions", body, nil); err != nil {
			e.stopHTTP()
			_ = e.sv.Close() // the create error is the one to report
			return nil, fmt.Errorf("creating session %s: %w", sessionNames[k], err)
		}
	}
	return e, nil
}

// call makes one HTTP request on session k's connection and decodes a
// JSON reply into out (when non-nil; a *string takes the body as is).
// Any transport error or non-2xx status is an error.
func (e *serveEnv) call(k int, method, path, body string, out any) (time.Duration, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, e.base+path, rd)
	if err != nil {
		return 0, err
	}
	t := time.Now()
	resp, err := e.client[k].Do(req)
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	d := end.Sub(t)
	e.reqID[k]++
	e.rec.add(k<<28|e.reqID[k], "http."+spanName(path), -1, t, end)
	if err != nil {
		return d, err
	}
	if resp.StatusCode/100 != 2 {
		return d, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if text, ok := out.(*string); ok {
		*text = string(data)
	} else if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return d, fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
		}
	}
	return d, nil
}

// spanName names an API call by its last path segment (sql, votes,
// accept, recommendation, status, trace, metrics).
func spanName(path string) string {
	path, _, _ = strings.Cut(path, "?")
	return path[strings.LastIndex(path, "/")+1:]
}

// stopHTTP shuts the listener down and waits for the serve goroutine.
func (e *serveEnv) stopHTTP() {
	e.srv.Shutdown(context.Background()) //nolint:errcheck // Serve's own return is checked below
	if err := <-e.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "wfitperf: http serve:", err)
	}
	for _, c := range e.client {
		c.CloseIdleConnections()
	}
}

// indexDef is the wire form of an index in API replies.
type indexDef struct {
	Table   string   `json:"table"`
	Columns []string `json:"columns"`
}

func defsKey(defs []indexDef) string {
	keys := make([]string, len(defs))
	for i, d := range defs {
		keys[i] = d.Table + "(" + strings.Join(d.Columns, ",") + ")"
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

func setKey(reg *index.Registry, s index.Set) string {
	var defs []indexDef
	s.Each(func(id index.ID) {
		d := reg.Get(id)
		defs = append(defs, indexDef{d.Table, d.Columns})
	})
	return defsKey(defs)
}

// sessionStatus is the subset of GET /sessions/{id}/status the benchmark reads.
type sessionStatus struct {
	Statements         int     `json:"statements"`
	TotalWork          float64 `json:"total_work"`
	WALSeq             uint64  `json:"wal_seq"`
	UniverseSize       int     `json:"universe_size"`
	Repartitions       int     `json:"repartitions"`
	States             int     `json:"states"`
	GroupCommits       int64   `json:"group_commits"`
	GroupCommitRecords int64   `json:"group_commit_records"`
	WhatIfCalls        int64   `json:"whatif_calls"`
	Checkpoints        int64   `json:"checkpoints"`
}

// request is one POST /sql of a shipper.
type request struct {
	first, n int
	rtt      time.Duration
}

// shipLog is what one session's shipper observed over one ladder step.
type shipLog struct {
	latUS    []float64 // due → ack per statement, +Inf when its request failed
	lateUS   []float64 // how late the shipper woke against its schedule
	lastAck  time.Time
	requests []request
	dbaOps   int
	failed   int
	traj     digester
}

// ship runs session k's open-loop log shipper over statements
// [pos, pos+st.Stmts) of its stream: each statement is due at its
// scheduled time from t0; whatever is due when the previous request
// returns goes in the next request. A statement's latency runs from its
// due time to its ack, so a stall counts against every statement that
// came due behind it. A DBA point cuts the batch: after its
// statement is acknowledged, the DBA reads the recommendation, votes and
// accepts before the shipper continues, so decisions happen at fixed
// stream positions whatever the timing.
func (e *serveEnv) ship(k, pos int, st step, t0 time.Time, votes *[]vote, log *shipLog) {
	interval := 2 / st.Rate // seconds between one session's statements
	first := pos
	due := func(j int) time.Time {
		off := (float64(j-first) + 0.5*float64(k)) * interval
		return t0.Add(time.Duration(off * float64(time.Second)))
	}
	end := pos + st.Stmts
	for pos < end {
		now := time.Now()
		// woke is set when the shipper slept until this request was due;
		// the time it then woke late is the generator's own lag, reported
		// as lateness and not charged to the statements it sends.
		var woke time.Time
		if d := due(pos); d.After(now) {
			sleepUntil(d)
			now = time.Now()
			woke = now
			log.lateUS = append(log.lateUS, us(now.Sub(d)))
		}
		limit := end
		if len(*votes) > 0 && (*votes)[0].After < limit {
			limit = (*votes)[0].After
		}
		n := 1
		for pos+n < limit && !due(pos+n).After(now) {
			n++
		}
		body, _ := json.Marshal(map[string][]string{"sql": e.in.SQL[k][pos : pos+n]}) // strings always marshal
		var reply struct {
			Results []json.RawMessage `json:"results"`
		}
		rtt, err := e.call(k, "POST", "/sessions/"+sessionNames[k]+"/sql", string(body), &reply)
		ack := time.Now()
		if err == nil && len(reply.Results) != n {
			err = fmt.Errorf("%d results for %d statements", len(reply.Results), n)
		}
		for j := pos; j < pos+n; j++ {
			if err != nil {
				log.latUS = append(log.latUS, math.Inf(1))
				log.failed++
				continue
			}
			from := due(j)
			if woke.After(from) {
				from = woke
			}
			log.latUS = append(log.latUS, us(ack.Sub(from)))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "wfitperf:", err)
		}
		log.requests = append(log.requests, request{first: pos, n: n, rtt: rtt})
		log.lastAck = ack
		pos += n
		if len(*votes) > 0 && (*votes)[0].After == pos {
			e.dba(k, (*votes)[0], log)
			*votes = (*votes)[1:]
		}
	}
}

// dba reads session k's recommendation, casts v and accepts, recording
// what it saw in the decision trajectory.
func (e *serveEnv) dba(k int, v vote, log *shipLog) {
	path := "/sessions/" + sessionNames[k]
	var rec struct {
		Recommendation []indexDef `json:"recommendation"`
	}
	var acc struct {
		Materialized   []indexDef `json:"materialized"`
		TransitionCost float64    `json:"transition_cost"`
	}
	vb, _ := json.Marshal(map[string][]indexDef{"plus": {{v.Table, []string{v.Column}}}}) // strings always marshal
	for _, op := range []struct {
		method, path, body string
		out                any
	}{
		{"GET", path + "/recommendation", "", &rec},
		{"POST", path + "/votes", string(vb), nil},
		{"POST", path + "/accept", "", &acc},
	} {
		log.dbaOps++
		if _, err := e.call(k, op.method, op.path, op.body, op.out); err != nil {
			fmt.Fprintln(os.Stderr, "wfitperf: dba:", err)
			log.failed++
		}
	}
	log.traj.num(int64(v.After))
	log.traj.str(defsKey(rec.Recommendation))
	log.traj.str(defsKey(acc.Materialized))
	log.traj.num(int64(math.Float64bits(acc.TransitionCost)))
}

// stepStats summarizes one ladder step of one pass.
type stepStats struct {
	step
	achieved, p50, p99, tailP50, lateP99 float64
	n                                    int
	valid, pass                          bool
}

// servePass is one full ladder pass on a fresh server.
type servePass struct {
	traced     bool
	steps      []stepStats
	stmts      int
	attempted  int
	failed     int
	allocBytes uint64
	lateP99    float64 // how late the shipper woke, us
	liveHeap   uint64  // untraced passes: live heap with only this pass's server held

	totalWork  float64
	trajectory string
	statuses   [2]sessionStatus
	final      [2]recoveryState
	checks     []check

	// Traced passes only.
	httpUS      []float64
	metricsText string
	snapBytes   []float64
}

func (p *servePass) exact() exact {
	return exact{TotalWork: math.Float64bits(p.totalWork), Trajectory: p.trajectory}
}

func runServePass(e *serveEnv, sc scale, traced bool) (*servePass, error) {
	p := &servePass{traced: traced}
	var votes [2][]vote
	for k := range votes {
		votes[k] = append([]vote(nil), e.in.Votes[k]...)
	}
	var trajs [2]digester
	var late []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	pos := 0
	for si, st := range sc.Ladder {
		var logs [2]shipLog
		var wg sync.WaitGroup
		t0 := time.Now().Add(2 * time.Millisecond)
		for k := 0; k < 2; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				e.ship(k, pos, st, t0, &votes[k], &logs[k])
			}(k)
		}
		wg.Wait()
		ss := stepStats{step: st}
		var lat, tail []float64
		last := t0
		for k := range logs {
			l := &logs[k]
			lat = append(lat, l.latUS...)
			tail = append(tail, l.latUS[len(l.latUS)*9/10:]...)
			late = append(late, l.lateUS...)
			p.attempted += len(l.latUS) + l.dbaOps
			p.failed += l.failed
			trajs[k].b = append(trajs[k].b, l.traj.b...)
			if l.lastAck.After(last) {
				last = l.lastAck
			}
			ss.lateP99 = math.Max(ss.lateP99, quantile(append([]float64(nil), l.lateUS...), 0.99))
		}
		ss.n = len(lat)
		p.stmts += ss.n
		ss.achieved = float64(ss.n) / last.Sub(t0).Seconds()
		ss.p50, ss.p99 = quantile(lat, 0.5), quantile(lat, 0.99)
		ss.tailP50 = quantile(tail, 0.5)
		ss.valid = ss.lateP99 <= us(lateLimit)
		limit := us(ackLimit)
		ss.pass = ss.valid && ss.p99 <= limit && ss.tailP50 <= limit
		p.steps = append(p.steps, ss)
		pos += st.Stmts
		if traced && si == 0 {
			// Right after the light step, the trace rings hold its
			// statements: pair single-statement requests with the server's
			// stage sum to get the HTTP share of the round trip.
			for k := range logs {
				if err := e.httpShare(k, logs[k].requests, &p.httpUS); err != nil {
					return nil, err
				}
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	p.lateP99 = quantile(late, 0.99)

	var traj digester
	for k := 0; k < 2; k++ {
		path := "/sessions/" + sessionNames[k]
		var rec struct {
			Recommendation []indexDef `json:"recommendation"`
		}
		if _, err := e.call(k, "GET", path+"/status", "", &p.statuses[k]); err != nil {
			return nil, err
		}
		if _, err := e.call(k, "GET", path+"/recommendation", "", &rec); err != nil {
			return nil, err
		}
		s := p.statuses[k]
		p.totalWork += s.TotalWork
		traj.b = append(traj.b, trajs[k].b...)
		traj.str(defsKey(rec.Recommendation))
		traj.num(int64(s.Statements))
		traj.num(int64(math.Float64bits(s.TotalWork)))
		if traced {
			fi, err := os.Stat(filepath.Join(e.dataDir, "sessions", sessionNames[k], "state.snap"))
			if err != nil {
				return nil, err
			}
			p.snapBytes = append(p.snapBytes, float64(fi.Size()))
		}
		p.checks = append(p.checks, checkEq("every statement applied, "+sessionNames[k], s.Statements, len(e.in.SQL[k])))
		p.final[k] = recoveryState{s.Statements, s.WALSeq, s.TotalWork, defsKey(rec.Recommendation)}
	}
	p.trajectory = traj.sum()
	if traced {
		if _, err := e.call(0, "GET", "/metrics", "", &p.metricsText); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// recoveryState is what a killed session must come back with.
type recoveryState struct {
	Statements int
	WALSeq     uint64
	TotalWork  float64
	Rec        string
}

// httpShare pairs session k's single-statement requests with the
// server's trace of that statement: round trip minus the server's stage
// sum is the share of the HTTP layer (and the client) in the request.
func (e *serveEnv) httpShare(k int, reqs []request, out *[]float64) error {
	var tr struct {
		Recent []obs.StatementTrace `json:"recent"`
	}
	if _, err := e.call(k, "GET", "/sessions/"+sessionNames[k]+"/trace?n=128", "", &tr); err != nil {
		return err
	}
	total := make(map[int]float64, len(tr.Recent))
	for _, t := range tr.Recent {
		total[t.ID] = t.TotalUS
	}
	for _, r := range reqs {
		// Server statement IDs are 1-based stream positions.
		if t, ok := total[r.first+1]; ok && r.n == 1 {
			*out = append(*out, us(r.rtt)-t)
		}
	}
	return nil
}

// killAndRecover kills every session the way a crash would (no flush, no
// checkpoint), reopens the server on the same data directory and checks
// that each session recovered exactly the state it acknowledged.
func killAndRecover(e *serveEnv, want [2]recoveryState) ([]check, error) {
	e.stopHTTP()
	for _, s := range e.sv.Sessions() {
		s.Kill()
	}
	sv, err := server.New(server.Config{DataDir: e.dataDir, Fsync: true, Batch: 64, CheckpointEvery: 500})
	if err != nil {
		return nil, fmt.Errorf("reopening after kill: %w", err)
	}
	var checks []check
	for k, name := range sessionNames {
		s, ok := sv.Session(name)
		if !ok {
			checks = append(checks, check{Name: "recovered " + name, Detail: "session missing after reopen"})
			continue
		}
		st := s.Status()
		rec, _, _ := s.Recommendation()
		got := recoveryState{st.Statements, st.WALSeq, st.TotalWork, setKey(s.Registry(), rec)}
		checks = append(checks, checkEq("recovered "+name+" equals pre-kill state", got, want[k]))
	}
	if err := sv.Close(); err != nil {
		return nil, err
	}
	return checks, nil
}

// promSample matches one sample line of the Prometheus text format.
var promSample = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)

// promSum adds up every sample of metric whose labels contain all of
// want (e.g. `stage="fsync"`), over all sessions.
func promSum(text, metric string, want ...string) float64 {
	total := 0.0
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		m := promSample.FindStringSubmatch(sc.Text())
		if m == nil || m[1] != metric {
			continue
		}
		match := true
		for _, w := range want {
			match = match && strings.Contains(m[2], w)
		}
		if v, err := strconv.ParseFloat(m[3], 64); err == nil && match {
			total += v
		}
	}
	return total
}

func runServe(slots []int, sc scale, seconds float64, traced bool, dir, spansPath string) (*result, error) {
	res := newResult("serve-dba")
	var setups []float64
	n := 0
	setup := func(slot int, metrics *obs.Registry) (*serveEnv, error) {
		n++
		dataDir := filepath.Join(dir, fmt.Sprintf("serve-%d-%d", os.Getpid(), n))
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
		runtime.GC()
		t := time.Now()
		e, err := setupServe(slot, sc, dataDir, metrics)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		return e, nil
	}
	teardown := func(e *serveEnv) error {
		e.stopHTTP()
		if err := e.sv.Close(); err != nil {
			return err
		}
		return os.RemoveAll(e.dataDir)
	}
	for k := 0; k < extraSetups; k++ {
		e, err := setup(slots[k%len(slots)], nil)
		if err != nil {
			return nil, err
		}
		if err := teardown(e); err != nil {
			return nil, err
		}
	}

	inputs := newPassInputs("serve-dba", sc)
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	var passes []*servePass
	start := time.Now()
	for k := 0; ; k++ {
		tracedPass := traced && k%2 == 1
		var metrics *obs.Registry
		if tracedPass {
			metrics = obs.NewRegistry()
		}
		slot := passSlot(slots, k, traced)
		e, err := setup(slot, metrics)
		if err != nil {
			return nil, err
		}
		inputs.input(res, k+1, slot, e.in.digest(slot, sc))
		if tracedPass {
			e.rec = rec
		}
		p, err := runServePass(e, sc, tracedPass)
		if err != nil {
			_ = teardown(e) // the pass error is the one to report
			return nil, err
		}
		if !tracedPass {
			p.liveHeap = liveHeap()
		}
		rc, err := killAndRecover(e, p.final)
		if err != nil {
			return nil, err
		}
		p.checks = append(p.checks, rc...)
		inputs.output(res, k+1, slot, tracedPass, p.exact())
		if err := os.RemoveAll(e.dataDir); err != nil {
			return nil, err
		}
		passes = append(passes, p)
		if enoughPasses(len(passes), traced, start, seconds) {
			break
		}
	}
	res.digest = inputs.digest()

	first := passes[0]
	var plain, tr []*servePass
	var late []float64
	for i, p := range passes {
		res.attempted += int64(p.attempted)
		res.failed += int64(p.failed)
		res.checks = append(res.checks, p.checks...)
		late = append(late, p.lateP99)
		kind := "untraced"
		if p.traced {
			tr = append(tr, p)
			kind = "traced"
		} else {
			plain = append(plain, p)
		}
		for _, s := range p.steps {
			valid := "valid"
			if !s.valid {
				valid = "INVALID (generator late)"
			}
			verdict := "meets limit"
			if !s.pass {
				verdict = "misses limit"
			}
			res.notes = append(res.notes, fmt.Sprintf("pass %d %-8s step %-8s offered %4.0f/s achieved %6.1f/s ack p50 %8.0fus p99 %9.0fus tail p50 %9.0fus late p99 %6.0fus n=%d %s, %s",
				i+1, kind, s.Name, s.Rate, s.achieved, s.p50, s.p99, s.tailP50, s.lateP99, s.n, valid, verdict))
		}
	}
	res.notes = append(res.notes, fmt.Sprintf("passes: %d untraced, %d traced; ack limit p99 %v, generator late limit p99 %v", len(plain), len(tr), ackLimit, lateLimit),
		"recommendation trajectory digest of the first pass: "+first.trajectory)

	// Each metric is the median over untraced passes of the pass's own
	// value, so one pass disturbed by the host does not move it. The
	// sustained rate is the achieved rate of the highest step that met
	// the limit.
	perPass := func(f func(p *servePass) float64) float64 {
		var xs []float64
		for _, p := range plain {
			xs = append(xs, f(p))
		}
		return median(xs)
	}
	np := len(plain)
	res.setE2E("ack_p50_us.light", perPass(func(p *servePass) float64 { return p.steps[0].p50 }), np)
	res.setE2E("ack_p99_us.light", perPass(func(p *servePass) float64 { return p.steps[0].p99 }), np)
	res.setE2E("ack_p50_us.busy", perPass(func(p *servePass) float64 { return p.steps[1].p50 }), np)
	res.setE2E("ack_p99_us.busy", perPass(func(p *servePass) float64 { return p.steps[1].p99 }), np)
	res.setE2E("sustained_stmts_per_s", perPass(func(p *servePass) float64 {
		best := 0.0
		for _, s := range p.steps {
			if s.pass {
				best = s.achieved
			}
		}
		return best
	}), np)
	// The gated metrics are taken under the saturating burst: at light
	// load, ack latency moves with hypervisor steal by up to four times on
	// a shared machine, too much to gate; those figures stay in the table.
	saturate := func(p *servePass) stepStats { return p.steps[len(p.steps)-1] }
	res.setE2E("stmt_p50_us", perPass(func(p *servePass) float64 { return saturate(p).p50 }), np)
	res.setE2E("stmt_p99_us", perPass(func(p *servePass) float64 { return saturate(p).p99 }), np)
	res.setE2E("stmts_per_s", perPass(func(p *servePass) float64 { return saturate(p).achieved }), np)
	res.setE2E("alloc_bytes_per_stmt", perPass(func(p *servePass) float64 { return float64(p.allocBytes) / float64(p.stmts) }), np)
	work, nw := inputs.totalWork()
	res.setE2E("total_work", work, nw)
	res.setE2E("live_heap_mb", perPass(func(p *servePass) float64 { return float64(p.liveHeap) / (1 << 20) }), np)
	res.setE2E("setup_s", median(setups), len(setups))
	res.setE2E("failed_frac", ratio(float64(res.failed), float64(res.attempted)), int(res.attempted))

	var rep, uni, states, calls float64
	for _, s := range first.statuses {
		rep += float64(s.Repartitions)
		uni += float64(s.UniverseSize)
		states += float64(s.States)
		calls += float64(s.WhatIfCalls)
	}
	res.setLayer("core.repartitions", rep, 2)
	res.setLayer("core.universe_size", uni, 2)
	res.setLayer("core.states", states, 2)
	res.setLayer("whatif.calls", calls, 2)
	res.setLayer("loadgen.late_us.p99", median(late), len(late))
	if !traced {
		return res, nil
	}

	t := tr[0]
	m := t.metricsText
	stage := func(name string) (secs, count float64) {
		return promSum(m, "wfit_ingest_stage_seconds_sum", `stage="`+name+`"`),
			promSum(m, "wfit_ingest_stage_seconds_count", `stage="`+name+`"`)
	}
	qs, qc := stage("queue")
	ws, wc := stage("wal_append")
	fs, fc := stage("fsync")
	as, _ := stage("analysis")
	ps, _ := stage("apply")
	cs, cc := promSum(m, "wfit_checkpoint_seconds_sum"), promSum(m, "wfit_checkpoint_seconds_count")
	var commits, records, ckpts float64
	for _, s := range t.statuses {
		commits += float64(s.GroupCommits)
		records += float64(s.GroupCommitRecords)
		ckpts += float64(s.Checkpoints)
	}
	res.setLayer("server.http_us.p50", quantile(t.httpUS, 0.5), len(t.httpUS))
	res.setLayer("server.queue_us.mean", ratio(qs, qc)*1e6, int(qc))
	res.setLayer("server.analysis_ms.total", as*1e3, 1)
	res.setLayer("server.apply_ms.total", ps*1e3, 1)
	res.setLayer("state.wal_append_us.mean", ratio(ws, wc)*1e6, int(wc))
	res.setLayer("state.fsync_us.mean", ratio(fs, fc)*1e6, int(fc))
	res.setLayer("state.records_per_commit", ratio(records, commits), int(commits))
	res.setLayer("state.checkpoints", ckpts, 2)
	res.setLayer("state.checkpoint_ms.mean", ratio(cs, cc)*1e3, int(cc))
	res.setLayer("state.snapshot_bytes", mean(t.snapBytes), len(t.snapBytes))
	var trLight []float64
	for _, p := range tr {
		trLight = append(trLight, p.steps[0].p50)
	}
	res.setLayer("obs.overhead_pct", (ratio(median(trLight), res.e2e["ack_p50_us.light"].V)-1)*100, len(trLight))
	return res, rec.write(spansPath)
}
