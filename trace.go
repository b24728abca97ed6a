package taupsm

import (
	"context"
	"hash/fnv"
	"time"

	"taupsm/internal/obs"
	"taupsm/internal/sqlast"
)

// This file is the stratum half of the tracing layer: trace sessions
// (which sinks receive a statement's spans, under which trace ID),
// the per-statement state threaded through translate → slice →
// execute → commit, and the sampling policy.
//
// A trace covers one top-level unit of work: one user statement, or —
// when Exec runs a multi-statement script — the whole script (the
// parse span and every statement root share the script's trace ID).
// Span identity lives in internal/obs; the stratum only decides when
// a trace starts and which spans join it.

// traceSession is the per-script (or per-statement) trace decision:
// the trace ID and the effective sink set. It rides on the
// context.Context so every layer below sees one consistent decision.
type traceSession struct {
	trace obs.TraceID
	tr    obs.Tracer
}

type traceSessionKey struct{}

func sessionFromContext(ctx context.Context) *traceSession {
	ts, _ := ctx.Value(traceSessionKey{}).(*traceSession)
	return ts
}

// WithTrace returns a context that forces span capture for every
// statement executed under it, regardless of the sampling setting,
// and the trace ID the spans will carry. Spans land in the trace
// buffer (TraceBuffer) and in the attached tracer, if any. The REPL's
// \trace and EXPLAIN ANALYZE are built on it.
func (db *DB) WithTrace(ctx context.Context) (context.Context, obs.TraceID) {
	ts := &traceSession{trace: obs.NewTraceID(), tr: obs.MultiTracer(db.tracer, db.ring)}
	return context.WithValue(ctx, traceSessionKey{}, ts), ts.trace
}

// ensureTraceContext attaches a trace session to ctx when none is
// present yet: the sampler decides once for the whole unit (script or
// statement). When the decision is "untraced", an empty session is
// still attached so the per-statement layer sees a decision was made
// and does not roll the sampler a second time.
func (db *DB) ensureTraceContext(ctx context.Context) context.Context {
	if sessionFromContext(ctx) != nil {
		return ctx
	}
	ts := db.newTraceSession()
	if ts == nil {
		ts = &traceSession{}
	}
	return context.WithValue(ctx, traceSessionKey{}, ts)
}

// newTraceSession makes the per-unit tracing decision: the attached
// tracer (SetTracer) always participates; the trace buffer joins for
// every Nth unit per the sampling setting. Nil when neither applies —
// the fully-disabled fast path.
func (db *DB) newTraceSession() *traceSession {
	var ring obs.Tracer
	if n := db.sampleN.Load(); n > 0 && db.sampleCtr.Add(1)%uint64(n) == 0 {
		ring = db.ring
	}
	tr := obs.MultiTracer(db.tracer, ring)
	if tr == nil {
		return nil
	}
	return &traceSession{trace: obs.NewTraceID(), tr: tr}
}

// SetTraceSampling controls span capture into the trace buffer: n = 1
// records every statement, n = k every kth, n = 0 (the default) none.
// Sampling is independent of SetTracer — an attached tracer always
// receives every span. The /traces telemetry endpoint and the
// taubench observability report read the sampled buffer.
func (db *DB) SetTraceSampling(n int) {
	if n < 0 {
		n = 0
	}
	db.sampleN.Store(int64(n))
}

// TraceSampling returns the current sampling setting (0 = off).
func (db *DB) TraceSampling() int { return int(db.sampleN.Load()) }

// TraceBuffer returns the bounded ring buffer holding recently
// sampled spans, grouped by trace ID — the store behind the /traces
// endpoint and the REPL's \trace.
func (db *DB) TraceBuffer() *obs.Ring { return db.ring }

// LastStatement reports the most recently executed statement's trace
// ID (zero when it was not traced) and its total duration measured on
// the span clock — the same measurement the stratum.statement root
// span and the slow-query log carry, so \timing never disagrees with
// a trace.
func (db *DB) LastStatement() (obs.TraceID, time.Duration) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.lastTrace, db.lastDur
}

func (db *DB) noteLastStatement(trace obs.TraceID, d time.Duration) {
	db.mu.Lock()
	db.lastTrace, db.lastDur = trace, d
	db.mu.Unlock()
}

// stmtState carries one statement's observability through the
// execution layers: the effective tracer and root span context, the
// per-stage durations, and the execution facts (fragments, cache
// outcomes, WAL cost) that EXPLAIN ANALYZE and the slow-query log
// report. It exists only when the statement is traced or the slow log
// is armed; the disabled hot path passes nil and every site reduces
// to one pointer comparison.
type stmtState struct {
	// tr receives the statement's spans; nil when only the slow log is
	// armed (stage durations are still collected — they cost two clock
	// reads each, already paid for the latency histograms).
	tr   obs.Tracer
	root obs.SpanContext

	kind     string
	strategy string
	// procID is the statement's process-list entry ID, joining slow-log
	// lines and EXPLAIN ANALYZE output against live introspection.
	procID int64
	// total is the statement's end-to-end duration, set by finishStmt.
	total time.Duration

	lintDur      time.Duration
	translateDur time.Duration
	cpDur        time.Duration
	executeDur   time.Duration
	commitDur    time.Duration
	fsyncDur     time.Duration

	rows         int
	affected     int
	fragments    int64
	cps          int64
	workers      int
	transProbed  bool
	transHit     bool
	cpProbed     bool
	cpHit        bool
	walBytes     int64
	walFsyncs    int64
	routineCalls int64
	rowsScanned  int64
	// planHits is this statement's delta (from the session journal,
	// like routineCalls), not the prepared plan's lifetime total —
	// EXPLAIN ANALYZE must report per-statement figures even though the
	// plan is shared across a batch.
	planHits int64
}

// traced reports whether spans should be emitted.
func (st *stmtState) traced() bool { return st != nil && st.tr != nil }

// beginStmt decides this statement's observability: the context's
// trace session (possibly an empty "decided: untraced" one), or —
// for callers that never went through ensureTraceContext — a fresh
// per-statement sampling decision. Plain stage accounting happens
// whenever the slow log is armed. Returns nil when everything is off.
func (db *DB) beginStmt(ctx context.Context, kind string) *stmtState {
	ts := sessionFromContext(ctx)
	if ts == nil {
		ts = db.newTraceSession()
	}
	traced := ts != nil && ts.tr != nil
	if !traced && !db.slowLogArmed() {
		return nil
	}
	st := &stmtState{kind: kind}
	if traced {
		st.tr = ts.tr
		st.root = obs.SpanContext{Trace: ts.trace, Span: obs.NewSpanID()}
	}
	return st
}

// finishStmt closes out a statement: the stratum.statement root span,
// the \timing record, and the slow-query log entry.
func (db *DB) finishStmt(st *stmtState, stmt sqlast.Stmt, start time.Time, total time.Duration, execErr error) {
	var trace obs.TraceID
	if st != nil {
		trace = st.root.Trace
		st.total = total
	}
	db.noteLastStatement(trace, total)
	if st.traced() {
		attrs := []obs.Attr{obs.A("kind", st.kind)}
		if st.strategy != "" {
			attrs = append(attrs, obs.A("strategy", st.strategy))
		}
		attrs = append(attrs, obs.AInt("rows", int64(st.rows)))
		if execErr != nil {
			attrs = append(attrs, obs.A("error", execErr.Error()))
		}
		st.tr.Span(obs.Span{Name: "stratum.statement", Start: start, Dur: total,
			Trace: st.root.Trace, ID: st.root.Span, Attrs: attrs})
	}
	if st != nil {
		db.maybeSlowLog(st, stmt, total, execErr)
	}
	kind, strategy := "", ""
	if st != nil {
		kind, strategy = st.kind, st.strategy
	} else {
		kind = stmtKind(stmt)
	}
	db.noteStatementProfile(stmt, kind, strategy, total, execErr != nil)
}

// digestSQL is the statement digest carried by slow-log entries and
// span attributes: a stable 64-bit FNV-1a of the rendered SQL text,
// so repeated executions of one statement aggregate under one key.
func digestSQL(text string) string {
	h := fnv.New64a()
	h.Write([]byte(text))
	return obs.TraceID(h.Sum64()).String()
}
