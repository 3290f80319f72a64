package server

import (
	"reflect"
	"strings"

	"repro/internal/obs"
)

// This file is the session's observability seam: the resolved metric
// instruments a session feeds from its apply path, the reflection
// bridge that turns SessionStatus into per-session gauges (one source
// of truth — every numeric /status field IS a /metrics series), and
// the trace-ring accessors behind GET /sessions/{id}/trace.

// Metric names shared by the instrumentation, the scrape handler, and
// the consistency tests.
const (
	metricIngestStage    = "wfit_ingest_stage_seconds"
	metricCheckpoint     = "wfit_checkpoint_seconds"
	metricSessionPrefix  = "wfit_session_"
	metricIBGTruncations = "wfit_session_ibg_truncations_total"
	metricFollowerLag    = "wfit_replication_follower_lag_records"
	labelSession         = "session"
	labelEngine          = "engine"
	traceRecentRetained  = 128
	traceSlowestRetained = 32
)

// sessionObs carries one session's resolved instruments. A nil
// *sessionObs disables instrumentation entirely (no clocks, no trace
// ring) — the A/B knob the overhead bench flips.
type sessionObs struct {
	hQueue    *obs.Histogram
	hWAL      *obs.Histogram
	hFsync    *obs.Histogram
	hAnalysis *obs.Histogram
	hApply    *obs.Histogram
	hCkpt     *obs.Histogram
	trace     *obs.TraceRing
	// cTrunc counts statements whose IBG hit the node cap. It counts
	// this process's applies and is not a /status field, so recovery's
	// status comparisons do not see it.
	cTrunc *obs.Counter
}

// newSessionObs resolves the session's instruments once, at session
// construction; reg == nil keeps instrumentation off.
func newSessionObs(reg *obs.Registry, name string) *sessionObs {
	if reg == nil {
		return nil
	}
	reg.Help(metricIngestStage, "Per-session ingest latency by pipeline stage (queue wait, WAL append, fsync, what-if analysis, apply).")
	reg.Help(metricCheckpoint, "Checkpoint (snapshot + WAL truncation) duration.")
	reg.Help(metricIBGTruncations, "Statements whose index benefit graph hit the node cap, so their analysis is approximate.")
	stage := func(st string) *obs.Histogram {
		return reg.Histogram(metricIngestStage, obs.Labels{labelSession, name, "stage", st}, obs.LatencyBuckets)
	}
	return &sessionObs{
		hQueue:    stage("queue"),
		hWAL:      stage("wal_append"),
		hFsync:    stage("fsync"),
		hAnalysis: stage("analysis"),
		hApply:    stage("apply"),
		hCkpt:     reg.Histogram(metricCheckpoint, obs.Labels{labelSession, name}, obs.LatencyBuckets),
		trace:     obs.NewTraceRing(traceRecentRetained, traceSlowestRetained),
		cTrunc:    reg.Counter(metricIBGTruncations, obs.Labels{labelSession, name}),
	}
}

// stageShares carries the per-statement context applyStatement cannot
// compute itself: the job's queue wait and the statement's share of its
// group commit's flush and fsync.
type stageShares struct {
	queueUS float64
	walUS   float64
	fsyncUS float64
}

// TraceSnapshot returns up to n of the session's most recent statement
// traces (newest first) and up to n of its slowest (slowest first).
// enabled reports whether tracing is on (it is whenever the serving
// process wired a metrics registry).
func (s *Session) TraceSnapshot(n int) (recent, slowest []obs.StatementTrace, enabled bool) {
	if s.obsv == nil {
		return nil, nil, false
	}
	recent, slowest = s.obsv.trace.Snapshot(n)
	return recent, slowest, true
}

// forEachStatusMetric walks every numeric field of a SessionStatus and
// emits it as (metric name, value): wfit_session_<json tag>, with
// nested sections (replication) flattened as
// wfit_session_<section>_<tag>. This single walk is what generates the
// per-session gauges at scrape time AND what the consistency test
// enumerates — /status and /metrics cannot drift because both views
// are projections of the same struct.
func forEachStatusMetric(st *SessionStatus, emit func(metric string, v float64)) {
	walkStatusStruct(reflect.ValueOf(st).Elem(), metricSessionPrefix, emit)
}

func walkStatusStruct(v reflect.Value, prefix string, emit func(string, float64)) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag := strings.Split(f.Tag.Get("json"), ",")[0]
		if tag == "" || tag == "-" {
			continue
		}
		fv := v.Field(i)
		switch fv.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			emit(prefix+tag, float64(fv.Int()))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			emit(prefix+tag, float64(fv.Uint()))
		case reflect.Float32, reflect.Float64:
			emit(prefix+tag, fv.Float())
		case reflect.Pointer:
			if fv.IsNil() || fv.Elem().Kind() != reflect.Struct {
				continue
			}
			walkStatusStruct(fv.Elem(), prefix+tag+"_", emit)
		case reflect.Struct:
			walkStatusStruct(fv, prefix+tag+"_", emit)
		}
	}
}
