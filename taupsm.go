// Package taupsm is a Temporal SQL/PSM database: an in-memory SQL
// engine with stored procedures and functions (SQL/PSM) fronted by a
// stratum that implements the SQL/Temporal statement modifiers
// VALIDTIME and NONSEQUENCED VALIDTIME for queries, modifications, and
// — the contribution of the underlying paper — stored routines.
//
// It reproduces "Temporal Support for Persistent Stored Modules"
// (Snodgrass, Gao, Zhang, Thomas; ICDE 2012): statements without a
// temporal modifier get current semantics (temporal upward
// compatibility), VALIDTIME statements get sequenced semantics
// implemented by maximally-fragmented or per-statement slicing, and
// NONSEQUENCED VALIDTIME exposes the period timestamps as ordinary
// columns.
//
// Quick start:
//
//	db := taupsm.Open()
//	db.MustExec(`CREATE TABLE author (author_id CHAR(10), first_name CHAR(50)) AS VALIDTIME`)
//	db.MustExec(`NONSEQUENCED VALIDTIME INSERT INTO author VALUES ('a1', 'Ben', DATE '2010-01-01', DATE '2010-06-01')`)
//	res, err := db.Query(`VALIDTIME SELECT first_name FROM author`)
//
// Open creates an in-memory database; OpenDir creates one whose
// committed state persists in a data directory (write-ahead log plus
// snapshots) and survives restarts.
package taupsm

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"taupsm/internal/check"
	"taupsm/internal/core"
	"taupsm/internal/engine"
	"taupsm/internal/obs"
	"taupsm/internal/proc"
	"taupsm/internal/sqlast"
	"taupsm/internal/sqlparser"
	"taupsm/internal/stats"
	"taupsm/internal/storage"
	"taupsm/internal/temporal"
	"taupsm/internal/types"
	"taupsm/internal/wal"
)

// Strategy selects the sequenced slicing strategy.
type Strategy = core.Strategy

// Slicing strategies. Auto applies the paper's §VII-F heuristic.
const (
	Auto         = core.StrategyAuto
	Max          = core.StrategyMax
	PerStatement = core.StrategyPerStatement
)

// ErrNotTransformable reports that per-statement slicing cannot handle
// a statement; use Max instead (Auto falls back automatically).
var ErrNotTransformable = core.ErrNotTransformable

// DB is a temporal database: the stratum plus the conventional engine.
type DB struct {
	eng      *engine.DB
	tr       *core.Translator
	strategy Strategy

	// tracer receives spans and events from the stratum and (shared)
	// from the engine; nil means tracing is off and every
	// instrumentation site reduces to one pointer comparison.
	tracer obs.Tracer
	// metrics is the always-on registry; sm caches its hot handles.
	metrics *obs.Metrics
	sm      stratumMetrics

	// ring buffers recently captured spans for /traces and the REPL's
	// \trace; sampleN/sampleCtr implement every-Nth-statement capture
	// into it (0 = off, the default). See trace.go.
	ring      *obs.Ring
	sampleN   atomic.Int64
	sampleCtr atomic.Uint64

	// procs is the always-on in-flight statement registry: every user
	// statement registers a process entry whose progress counters the
	// engine and the parallel workers update, and which SHOW
	// PROCESSLIST, tau_stat_activity, the REPL and /processlist read
	// live. KILL works through it. See process.go.
	procs *proc.Registry

	// slowW/slowMin configure the structured slow-query log; slowMu
	// serializes entry writes so concurrent statements never interleave
	// JSON lines. See slowlog.go.
	slowMu  sync.Mutex
	slowW   io.Writer
	slowMin time.Duration

	// UseFigure8SQL, when true, computes the constant periods of MAX
	// slicing by executing the paper's Figure-8 SQL instead of the
	// stratum's native computation. Slower; useful to validate the two
	// paths against each other.
	UseFigure8SQL bool

	// CoalesceResults, when true, merges value-equivalent rows with
	// adjacent or overlapping periods in sequenced query results,
	// returning maximal periods. Off by default: the raw fragmentation
	// is what the slicing strategies naturally produce (and what the
	// benchmark measures); snapshot equivalence holds either way.
	CoalesceResults bool

	// mu guards the caches below, the parallelism setting, and the
	// merge of per-statement engine journals into eng.Stats. Statements
	// execute on engine sessions, so any number of goroutines may call
	// Query concurrently; writes (DML/DDL) still need external
	// serialization against concurrent readers.
	mu         sync.Mutex
	par        int
	parseCache map[string][]sqlast.Stmt
	tcache     map[string]*translationEntry
	cpcache    map[string]*cpEntry
	// lintCache keyed by statement text serves repeated static analysis
	// (EXPLAIN's lint section, re-executed statements) for one catalog
	// version; any catalog-shape change wipes it wholesale.
	lintCache  map[string][]Diagnostic
	lintCacheV int64

	// lastFallbackNote describes the most recent PERST→MAX fallback
	// and whether the static analyzer predicted it; see
	// LastFallbackNote.
	lastFallbackNote string

	// lastTrace/lastDur describe the most recent statement for
	// LastStatement (the REPL's \timing and \trace); guarded by mu.
	lastTrace obs.TraceID
	lastDur   time.Duration

	// dur is the write-ahead log of a persistent database (nil for
	// in-memory databases); recovery describes what the last OpenDir /
	// OpenFS reconstructed. See durability.go.
	dur      *wal.Store
	recovery *wal.RecoveryInfo
}

// Open creates an empty in-memory temporal database. For a durable
// database backed by a data directory, see OpenDir.
func Open() *DB {
	return newDB(engine.New(), obs.NewMetrics())
}

// newDB assembles a stratum over an engine (whose catalog may have
// been recovered from a snapshot + WAL) and a metrics registry.
func newDB(eng *engine.DB, metrics *obs.Metrics) *DB {
	db := &DB{
		eng:        eng,
		strategy:   Auto,
		metrics:    metrics,
		par:        runtime.GOMAXPROCS(0),
		parseCache: map[string][]sqlast.Stmt{},
		tcache:     map[string]*translationEntry{},
		cpcache:    map[string]*cpEntry{},
		lintCache:  map[string][]Diagnostic{},
		ring:       obs.NewRing(0),
		procs:      proc.NewRegistry(),
	}
	eng.Procs = db.procs
	db.sm = newStratumMetrics(db.metrics)
	db.sm.parWorkers.Set(int64(db.par))
	eng.Metrics = db.metrics
	if eng.TabStats == nil {
		// In-memory databases get a fresh registry; persistent ones
		// arrive with the registry the WAL store recovered (OpenFS).
		eng.TabStats = stats.NewRegistry()
	}
	db.tr = core.NewTranslator(&schemaInfo{cat: eng.Cat})
	return db
}

// SetParallelism sets the worker-pool size used to evaluate the
// constant-period fragments of MAX-sliced sequenced queries
// concurrently. The default is GOMAXPROCS. n <= 1 disables parallel
// evaluation. Tracing no longer forces serial evaluation: each worker
// emits its own stratum.worker span, and span parent/trace IDs carry
// the structure regardless of delivery order.
func (db *DB) SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	db.mu.Lock()
	db.par = n
	db.mu.Unlock()
	db.sm.parWorkers.Set(int64(n))
}

// Parallelism returns the current worker-pool size.
func (db *DB) Parallelism() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.par
}

// SetTracer attaches (or, with nil, detaches) a tracer receiving spans
// and events from every layer: stratum statement phases, strategy
// decisions, engine query evaluations and routine invocations. A
// tracer also enables the detailed metrics that require timing or
// extra bookkeeping (engine.routine_ns, stratum.fragments). Use
// obs.MultiTracer to fan out to several sinks.
func (db *DB) SetTracer(t obs.Tracer) {
	db.tracer = t
	db.eng.Tracer = t
}

// Tracer returns the attached tracer (nil when tracing is off).
func (db *DB) Tracer() obs.Tracer { return db.tracer }

// Metrics returns the database's metrics registry: atomic counters,
// gauges and latency histograms covering the stratum (statement kinds,
// strategy decisions, constant periods) and the engine (rows scanned
// and returned, routine invocations). Render it with String().
func (db *DB) Metrics() *obs.Metrics { return db.metrics }

// stratumMetrics caches the registry handles the stratum updates on
// every statement, so the hot path never takes the registry lock.
type stratumMetrics struct {
	statements    *obs.Counter
	kind          map[string]*obs.Counter
	explain       *obs.Counter
	strategyMax   *obs.Counter
	strategyPerst *obs.Counter
	autoDecisions *obs.Counter
	autoReason    map[core.Reason]*obs.Counter
	perstFallback *obs.Counter
	cpLast        *obs.Gauge
	cpTotal       *obs.Counter
	fragLast      *obs.Gauge
	fragTotal     *obs.Counter
	parseNS       *obs.Histogram
	translateNS   *obs.Histogram
	executeNS     *obs.Histogram

	transHits   *obs.Counter
	transMisses *obs.Counter
	cpHits      *obs.Counter
	cpMisses    *obs.Counter
	parStmts    *obs.Counter
	parFrags    *obs.Counter
	parWorkers  *obs.Gauge

	lintRuns *obs.Counter
	lintHits *obs.Counter

	engRowsScanned    *obs.Counter
	engRowsReturned   *obs.Counter
	engRoutineCalls   *obs.Counter
	engStatements     *obs.Counter
	engLogWrites      *obs.Counter
	engIntervalProbes *obs.Counter
	engPlanReuseHits  *obs.Counter
}

func newStratumMetrics(m *obs.Metrics) stratumMetrics {
	sm := stratumMetrics{
		statements: m.Counter("stratum.statements_total"),
		kind: map[string]*obs.Counter{
			"current":      m.Counter("stratum.statements.current_total"),
			"sequenced":    m.Counter("stratum.statements.sequenced_total"),
			"nonsequenced": m.Counter("stratum.statements.nonsequenced_total"),
		},
		explain:       m.Counter("stratum.explain_total"),
		strategyMax:   m.Counter("stratum.strategy.max_total"),
		strategyPerst: m.Counter("stratum.strategy.perst_total"),
		autoDecisions: m.Counter("stratum.auto.decisions_total"),
		autoReason:    map[core.Reason]*obs.Counter{},
		perstFallback: m.Counter("stratum.perst_fallback_total"),
		cpLast:        m.Gauge("stratum.constant_periods"),
		cpTotal:       m.Counter("stratum.constant_periods_total"),
		fragLast:      m.Gauge("stratum.fragments"),
		fragTotal:     m.Counter("stratum.fragments_total"),
		parseNS:       m.Histogram("stratum.parse_ns"),
		translateNS:   m.Histogram("stratum.translate_ns"),
		executeNS:     m.Histogram("stratum.execute_ns"),

		transHits:   m.Counter("stratum.cache.translation_hits_total"),
		transMisses: m.Counter("stratum.cache.translation_misses_total"),
		cpHits:      m.Counter("stratum.cache.cp_hits_total"),
		cpMisses:    m.Counter("stratum.cache.cp_misses_total"),
		parStmts:    m.Counter("stratum.parallel.statements_total"),
		parFrags:    m.Counter("stratum.parallel.fragments_total"),
		parWorkers:  m.Gauge("stratum.parallel.workers"),

		lintRuns: m.Counter("stratum.lint.analysis_runs_total"),
		lintHits: m.Counter("stratum.lint.cache_hits_total"),

		engRowsScanned:    m.Counter("engine.rows_scanned_total"),
		engRowsReturned:   m.Counter("engine.rows_returned_total"),
		engRoutineCalls:   m.Counter("engine.routine_calls_total"),
		engStatements:     m.Counter("engine.statements_total"),
		engLogWrites:      m.Counter("engine.log_writes_total"),
		engIntervalProbes: m.Counter("engine.interval_probes_total"),
		engPlanReuseHits:  m.Counter("engine.plan_reuse_hits_total"),
	}
	for _, r := range []core.Reason{
		core.ReasonNotTransformable, core.ReasonPerPeriodCursor,
		core.ReasonShortContext, core.ReasonStatsFewPeriods,
		core.ReasonDefault, core.ReasonProbeError,
	} {
		sm.autoReason[r] = m.Counter("stratum.auto.reason." + string(r) + "_total")
	}
	return sm
}

// stmtKind classifies a statement by its temporal modifier.
func stmtKind(stmt sqlast.Stmt) string {
	switch s := stmt.(type) {
	case *sqlast.TemporalStmt:
		switch s.Mod {
		case sqlast.ModSequenced:
			return "sequenced"
		case sqlast.ModNonsequenced:
			return "nonsequenced"
		}
	case *sqlast.CreateViewStmt:
		switch s.Mod {
		case sqlast.ModSequenced:
			return "sequenced"
		case sqlast.ModNonsequenced:
			return "nonsequenced"
		}
	}
	return "current"
}

// SetStrategy fixes the slicing strategy for sequenced statements;
// Auto (the default) uses the §VII-F heuristic with fallback to MAX
// when per-statement slicing does not apply.
func (db *DB) SetStrategy(s Strategy) { db.strategy = s }

// Strategy returns the current strategy setting.
func (db *DB) Strategy() Strategy { return db.strategy }

// SetNow fixes CURRENT_DATE, making current-semantics results
// deterministic.
func (db *DB) SetNow(year, month, day int) {
	db.eng.Now = types.MustDate(year, month, day)
}

// Engine exposes the underlying conventional engine (statistics,
// direct conventional execution). Intended for benchmarks and tests.
func (db *DB) Engine() *engine.DB { return db.eng }

// parseScript parses src, timing the parse phase; repeated sources
// come from the parse cache (reusing AST pointers, which also keys the
// engine's plan cache). When ctx carries a trace session the parse
// span joins that trace as a root-level span.
func (db *DB) parseScript(ctx context.Context, src string) ([]sqlast.Stmt, error) {
	if stmts, ok := db.cachedParse(src); ok {
		return stmts, nil
	}
	start := time.Now()
	stmts, err := sqlparser.ParseScript(src)
	d := time.Since(start)
	db.sm.parseNS.Record(d)
	tr, sp := db.tracer, obs.Span{Name: "stratum.parse", Start: start, Dur: d}
	if ts := sessionFromContext(ctx); ts != nil {
		tr = ts.tr
		sp.Trace, sp.ID = ts.trace, obs.NewSpanID()
	}
	if tr != nil {
		sp.Attrs = []obs.Attr{obs.AInt("statements", int64(len(stmts)))}
		if err != nil {
			sp.Attrs = append(sp.Attrs, obs.A("error", err.Error()))
		}
		tr.Span(sp)
	}
	if err == nil {
		db.storeParse(src, stmts)
	}
	return stmts, err
}

// Exec parses and executes a Temporal SQL/PSM script, returning the
// result of the last statement.
func (db *DB) Exec(src string) (*Result, error) {
	return db.ExecContext(context.Background(), src)
}

// ExecContext is Exec under a context. The context may carry a forced
// trace session (WithTrace); otherwise the sampling policy decides
// whether the script is traced. All statements of one script share one
// trace.
func (db *DB) ExecContext(ctx context.Context, src string) (*Result, error) {
	ctx = db.ensureTraceContext(ctx)
	stmts, err := db.parseScript(ctx, src)
	if err != nil {
		return nil, err
	}
	var last *Result
	for _, s := range stmts {
		last, err = db.ExecParsedContext(ctx, s)
		if err != nil {
			return nil, err
		}
	}
	return last, nil
}

// MustExec is Exec that panics on error; for setup code and examples.
func (db *DB) MustExec(src string) *Result {
	res, err := db.Exec(src)
	if err != nil {
		panic(err)
	}
	return res
}

// Query executes a single statement and returns its rows.
func (db *DB) Query(src string) (*Result, error) {
	return db.QueryContext(context.Background(), src)
}

// QueryContext is Query under a context; see ExecContext for trace
// semantics.
func (db *DB) QueryContext(ctx context.Context, src string) (*Result, error) {
	ctx = db.ensureTraceContext(ctx)
	stmts, err := db.parseScript(ctx, src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("expected exactly one statement, found %d", len(stmts))
	}
	return db.ExecParsedContext(ctx, stmts[0])
}

// ExecParsed translates and executes one parsed statement. EXPLAIN
// statements are answered by the stratum without executing their body;
// EXPLAIN ANALYZE executes the body and annotates the plan with the
// observed timings.
func (db *DB) ExecParsed(stmt sqlast.Stmt) (*Result, error) {
	return db.ExecParsedContext(context.Background(), stmt)
}

// ExecParsedContext is ExecParsed under a context; see ExecContext for
// trace semantics.
func (db *DB) ExecParsedContext(ctx context.Context, stmt sqlast.Stmt) (*Result, error) {
	if ex, ok := stmt.(*sqlast.ExplainStmt); ok {
		var e *Explain
		var err error
		if ex.Analyze {
			e, err = db.explainAnalyzeParsed(ctx, ex.Body)
		} else {
			start := time.Now()
			e, err = db.ExplainParsed(ex.Body)
			db.noteLastStatement(0, time.Since(start))
		}
		if err != nil {
			return nil, err
		}
		return e.Result(), nil
	}
	if an, ok := stmt.(*sqlast.AnalyzeStmt); ok {
		start := time.Now()
		res, err := db.execAnalyze(an)
		d := time.Since(start)
		db.noteLastStatement(0, d)
		db.noteStatementProfile(stmt, "current", "", d, err != nil)
		return res, err
	}
	if _, ok := stmt.(*sqlast.ShowProcessListStmt); ok {
		start := time.Now()
		res := db.processListResult()
		db.noteLastStatement(0, time.Since(start))
		return res, nil
	}
	if k, ok := stmt.(*sqlast.KillStmt); ok {
		start := time.Now()
		err := db.Kill(k.PID)
		db.noteLastStatement(0, time.Since(start))
		if err != nil {
			return nil, err
		}
		return &Result{}, nil
	}
	res, _, err := db.execStatement(ctx, stmt)
	return res, err
}

// execStatement is the statement spine: classification, CREATE-time
// lint, translation, execution, commit — with one stmtState carrying
// the statement's observability end to end. It returns the state so
// EXPLAIN ANALYZE can render what actually happened.
func (db *DB) execStatement(ctx context.Context, stmt sqlast.Stmt) (*Result, *stmtState, error) {
	kind := stmtKind(stmt)
	db.sm.statements.Inc()
	if c := db.sm.kind[kind]; c != nil {
		c.Inc()
	}
	st := db.beginStmt(ctx, kind)
	// Process registration is independent of tracing: the registry is
	// always on (st is nil whenever tracing and the slow log are off).
	pr := db.beginProcess(ctx, stmt, st, kind)
	defer db.procs.Finish(pr)
	if st != nil && pr != nil {
		st.procID = pr.ID
	}
	start := time.Now()

	// CREATE-time validation: routine definitions pass through the
	// static analyzer before translation. Error diagnostics (undeclared
	// variables or cursors, unknown callees, arity mismatches, ...)
	// reject the definition outright; warnings ride on the result.
	var warnings []Diagnostic
	switch stmt.(type) {
	case *sqlast.CreateFunctionStmt, *sqlast.CreateProcedureStmt:
		pr.SetStage("lint")
		var cerr error
		warnings, cerr = db.timedLint(st, stmt)
		if cerr != nil {
			db.finishStmt(st, stmt, start, time.Since(start), cerr)
			return nil, st, cerr
		}
	}

	pr.SetStage("translate")
	t, ent, err := db.timedTranslate(st, stmt, kind)
	if err != nil {
		db.finishStmt(st, stmt, start, time.Since(start), err)
		return nil, st, err
	}
	if t != nil && kind == "sequenced" {
		if st != nil {
			st.strategy = t.Strategy.String()
		}
		pr.SetStrategy(t.Strategy.String())
	}
	res, err := db.timedRun(st, pr, t, ent, kind)
	if err != nil {
		db.finishStmt(st, stmt, start, time.Since(start), err)
		return nil, st, err
	}
	if db.CoalesceResults && isSequencedQueryResult(stmt, res) {
		res = coalesceResult(res)
	}
	out := wrapResult(res)
	out.Warnings = warnings
	db.finishStmt(st, stmt, start, time.Since(start), nil)
	return out, st, nil
}

// timedLint runs CREATE-time validation, timing it as the lint stage.
func (db *DB) timedLint(st *stmtState, stmt sqlast.Stmt) ([]Diagnostic, error) {
	start := time.Now()
	warnings, err := db.checkCreate(stmt)
	d := time.Since(start)
	if st != nil {
		st.lintDur = d
		if st.tr != nil {
			attrs := []obs.Attr{obs.AInt("warnings", int64(len(warnings)))}
			if err != nil {
				attrs = append(attrs, obs.A("error", err.Error()))
			}
			st.tr.Span(obs.Span{Name: "stratum.lint", Start: start, Dur: d,
				Trace: st.root.Trace, ID: obs.NewSpanID(), Parent: st.root.Span, Attrs: attrs})
		}
	}
	return warnings, err
}

// timedTranslate runs the translation phase, recording its latency and
// a stratum.translate span.
func (db *DB) timedTranslate(st *stmtState, stmt sqlast.Stmt, kind string) (*core.Translation, *translationEntry, error) {
	start := time.Now()
	t, ent, err := db.cachedTranslate(st, stmt)
	d := time.Since(start)
	db.sm.translateNS.Record(d)
	if st != nil {
		st.translateDur = d
	}
	if st.traced() {
		attrs := []obs.Attr{obs.A("kind", kind)}
		if t != nil && kind == "sequenced" {
			attrs = append(attrs, obs.A("strategy", t.Strategy.String()))
		}
		if st.transProbed {
			attrs = append(attrs, obs.A("cached", fmt.Sprintf("%v", st.transHit)))
		}
		if err != nil {
			attrs = append(attrs, obs.A("error", err.Error()))
		}
		st.tr.Span(obs.Span{Name: "stratum.translate", Start: start, Dur: d,
			Trace: st.root.Trace, ID: obs.NewSpanID(), Parent: st.root.Span, Attrs: attrs})
	}
	return t, ent, err
}

// cachedTranslate consults the translation cache before translating.
// Only sequenced statements are cached: their translation is what the
// strategy heuristic, routine cloning, and slicing rewrites make
// expensive; current and nonsequenced translations are cheap syntax
// rewrites.
func (db *DB) cachedTranslate(st *stmtState, stmt sqlast.Stmt) (*core.Translation, *translationEntry, error) {
	ts, isTemporal := stmt.(*sqlast.TemporalStmt)
	if !isTemporal || ts.Mod != sqlast.ModSequenced {
		t, err := db.translateStmt(stmt)
		return t, nil, err
	}
	if st != nil {
		st.transProbed = true
	}
	key := db.translationKey(stmt)
	if ent := db.lookupTranslation(key); ent != nil {
		db.sm.transHits.Inc()
		if st != nil {
			st.transHit = true
		}
		switch ent.t.Strategy {
		case Max:
			db.sm.strategyMax.Inc()
		case PerStatement:
			db.sm.strategyPerst.Inc()
		}
		return ent.t, ent, nil
	}
	db.sm.transMisses.Inc()
	catV := db.eng.Cat.PersistentVersion()
	t, err := db.translateStmt(stmt)
	if err != nil || t == nil {
		return t, nil, err
	}
	sum := db.mainSummary(t)
	ent := &translationEntry{
		t:            t,
		catVersion:   catV,
		stamps:       db.tableStamps(t.TemporalTables),
		summary:      sum,
		origSummary:  check.Summarize(check.FromStorage(db.eng.Cat), nil, stmt),
		parallelSafe: chunkOrderSafeMain(t) && sum.SharedWriteFree(),
	}
	db.pinDeps(ent)
	db.storeTranslation(key, ent)
	return t, ent, nil
}

// timedRun runs the execution phase on a fresh engine session,
// recording its latency, a stratum.execute span, and the session's
// work journal (rows scanned/returned, routine invocations) as metric
// deltas before merging it into the shared engine statistics. The
// journal commit (WAL append + fsync) is timed as its own stage with
// its own stratum.commit span.
func (db *DB) timedRun(st *stmtState, pr *proc.Process, t *core.Translation, ent *translationEntry, kind string) (*engine.Result, error) {
	ses := db.eng.NewSession()
	ses.Proc = pr
	// One journal spans the whole user statement: a sequenced DML
	// translation is several engine statements, but commits (and rolls
	// back) as a unit.
	j := engine.NewJournal()
	ses.Journal = j
	var execID obs.SpanID
	if st.traced() {
		ses.Tracer = st.tr
		ses.Trace, execID = st.root.Child()
	}
	pr.SetStage("execute")
	start := time.Now()
	res, err := db.runTranslation(st, ses, ent, t)
	d := time.Since(start)
	pr.SetWALPending(int64(j.Len()))
	if err != nil && pr.KilledBy(err) {
		// A killed statement must leave storage as if it never ran:
		// undo everything it journaled and skip the WAL append. The
		// journal's undo closures also revert the statistics the
		// partial execution recorded, and translation-cache entries
		// whose registrations were undone re-pin on next use.
		pr.SetStage("rollback")
		j.RollbackAll()
		pr.SetWALPending(0)
		res = nil
	} else {
		pr.SetStage("commit")
		if cerr := db.commitJournal(st, j); cerr != nil && err == nil {
			res, err = nil, cerr
		}
		pr.SetWALPending(0)
	}
	db.sm.executeNS.Record(d)
	delta := ses.Stats
	db.mu.Lock()
	db.eng.Stats.Merge(delta)
	db.mu.Unlock()
	db.sm.engRowsScanned.Add(delta.RowsScanned)
	db.sm.engRowsReturned.Add(delta.RowsReturned)
	db.sm.engRoutineCalls.Add(delta.RoutineCalls)
	db.sm.engStatements.Add(delta.Statements)
	db.sm.engLogWrites.Add(delta.LogWrites)
	db.sm.engIntervalProbes.Add(delta.IntervalProbes)
	db.sm.engPlanReuseHits.Add(delta.PlanReuseHits)
	if st != nil {
		st.executeDur = d
		st.routineCalls = delta.RoutineCalls
		st.rowsScanned = delta.RowsScanned
		st.planHits = delta.PlanReuseHits
		if res != nil {
			st.rows = len(res.Rows)
			st.affected = res.Affected
		}
	}
	if st.traced() {
		attrs := []obs.Attr{
			obs.A("kind", kind),
			obs.AInt("routine_calls", delta.RoutineCalls),
			obs.AInt("rows_scanned", delta.RowsScanned),
		}
		if err == nil && res != nil {
			attrs = append(attrs, obs.AInt("rows", int64(len(res.Rows))))
		}
		if err != nil {
			attrs = append(attrs, obs.A("error", err.Error()))
		}
		st.tr.Span(obs.Span{Name: "stratum.execute", Start: start, Dur: d,
			Trace: st.root.Trace, ID: execID, Parent: st.root.Span, Attrs: attrs})
	}
	return res, err
}

// isSequencedQueryResult reports whether res is the row set of a
// sequenced query (leading begin_time/end_time columns).
func isSequencedQueryResult(stmt sqlast.Stmt, res *engine.Result) bool {
	ts, ok := stmt.(*sqlast.TemporalStmt)
	if !ok || ts.Mod != sqlast.ModSequenced || res == nil || len(res.Cols) < 2 {
		return false
	}
	return strings.EqualFold(res.Cols[0], "begin_time") && strings.EqualFold(res.Cols[1], "end_time")
}

// coalesceResult merges value-equivalent rows with adjacent or
// overlapping periods into maximal periods.
func coalesceResult(res *engine.Result) *engine.Result {
	type keyed struct {
		row  []types.Value
		key  string
		used bool
	}
	rows := make([]keyed, 0, len(res.Rows))
	byKey := map[string][]*keyed{}
	for _, r := range res.Rows {
		var b strings.Builder
		for _, v := range r[2:] {
			b.WriteString(v.HashKey())
			b.WriteByte('|')
		}
		rows = append(rows, keyed{row: r, key: b.String()})
	}
	for i := range rows {
		byKey[rows[i].key] = append(byKey[rows[i].key], &rows[i])
	}
	out := &engine.Result{Cols: res.Cols, Affected: res.Affected}
	for i := range rows {
		if rows[i].used {
			continue
		}
		group := byKey[rows[i].key]
		// gather periods of this value group, coalesce, emit
		trs := make([]temporal.TimestampedRow, 0, len(group))
		for _, g := range group {
			g.used = true
			trs = append(trs, temporal.TimestampedRow{
				Key:    "",
				Period: temporal.Period{Begin: g.row[0].I, End: g.row[1].I},
			})
		}
		for _, tr := range temporal.Coalesce(trs) {
			nr := append([]types.Value{
				types.NewDate(tr.Period.Begin), types.NewDate(tr.Period.End),
			}, rows[i].row[2:]...)
			out.Rows = append(out.Rows, nr)
		}
	}
	return out
}

// translateStmt picks the strategy (running the heuristic for Auto)
// and translates, recording the strategy decision, the §VII-F reason,
// and any PERST fallback in the metrics registry.
func (db *DB) translateStmt(stmt sqlast.Stmt) (*core.Translation, error) {
	ts, isTemporal := stmt.(*sqlast.TemporalStmt)
	if !isTemporal || ts.Mod != sqlast.ModSequenced {
		return db.tr.Translate(stmt, db.strategy)
	}
	strategy := db.strategy
	if strategy == Auto {
		var reason core.Reason
		strategy, reason = db.chooseStrategy(ts)
		db.sm.autoDecisions.Inc()
		if c := db.sm.autoReason[reason]; c != nil {
			c.Inc()
		}
		if db.tracer != nil {
			db.tracer.Event(obs.Event{Name: "stratum.auto", Attrs: []obs.Attr{
				obs.A("strategy", strategy.String()), obs.A("reason", string(reason)),
			}})
		}
	}
	t, err := db.tr.Translate(stmt, strategy)
	if err != nil && errors.Is(err, core.ErrNotTransformable) && strategy == PerStatement && db.strategy == Auto {
		db.sm.perstFallback.Inc()
		db.noteFallback(ts, err)
		if db.tracer != nil {
			db.tracer.Event(obs.Event{Name: "stratum.perst_fallback",
				Attrs: []obs.Attr{obs.A("error", err.Error())}})
		}
		t, err = db.tr.Translate(stmt, Max)
	}
	if err == nil {
		switch t.Strategy {
		case Max:
			db.sm.strategyMax.Inc()
		case PerStatement:
			db.sm.strategyPerst.Inc()
		}
	}
	return t, err
}

// chooseStrategy applies the §VII-F heuristic to a sequenced
// statement, reporting which clause decided.
func (db *DB) chooseStrategy(ts *sqlast.TemporalStmt) (Strategy, core.Reason) {
	f := core.Features{PerstTransformable: true}
	begin, end := int64(0), int64(0)
	if ts.Period != nil {
		if bv, err := db.eng.EvalConstExpr(ts.Period.Begin); err == nil {
			begin = bv.Int()
		}
		if ev, err := db.eng.EvalConstExpr(ts.Period.End); err == nil {
			end = ev.Int()
		}
		f.ContextDays = end - begin
	} else {
		f.ContextDays = 1 << 30 // whole timeline
	}
	// Probe the PERST translation for applicability and per-period
	// cursor use, and count the reachable temporal rows.
	t, err := db.tr.Translate(&sqlast.TemporalStmt{Mod: sqlast.ModSequenced, Period: ts.Period, Body: ts.Body}, PerStatement)
	if err != nil {
		if errors.Is(err, core.ErrNotTransformable) {
			f.PerstTransformable = false
			db.noteFallback(ts, err)
			return core.ChooseExplained(f)
		}
		return Max, core.ReasonProbeError
	}
	f.UsesPerPeriodCursor = t.UsesPerPeriodCursor
	f.TemporalRows = db.temporalRowCount()
	if est, ok := db.statsEstimates(t.TemporalTables, ts.Period == nil, begin, end); ok {
		f.HasStats = true
		f.EstConstantPeriods = est.ConstantPeriods
		f.EstRows = est.Rows
	}
	return core.ChooseExplained(f)
}

// temporalRowCount is the heuristic's "data set size" proxy: total
// rows across all temporal tables.
func (db *DB) temporalRowCount() int {
	n := 0
	for _, name := range db.eng.Cat.TableNames() {
		if t := db.eng.Cat.Table(name); t != nil && (t.ValidTime || t.TransactionTime) {
			n += len(t.Rows)
		}
	}
	return n
}

// runTranslation registers the translation's routines (once per cache
// entry — the entry's catalog-version check guarantees they are still
// installed on later hits), then executes the main statement on the
// given engine session: natively for MAX constant periods unless
// UseFigure8SQL, through the translation's own Setup/Teardown script
// otherwise.
func (db *DB) runTranslation(st *stmtState, e *engine.DB, ent *translationEntry, t *core.Translation) (res *engine.Result, err error) {
	register := true
	if ent != nil {
		db.mu.Lock()
		register = !ent.registered
		db.mu.Unlock()
	}
	if register {
		for _, r := range t.Routines {
			if _, err := e.ExecStmt(r); err != nil {
				return nil, fmt.Errorf("registering transformed routine: %w", err)
			}
		}
		if ent != nil {
			// Registration may have bumped the catalog version and changed
			// what the clone names resolve to; re-pin the entry and its
			// dependency snapshot so the very next lookup already hits.
			db.mu.Lock()
			ent.registered = true
			ent.catVersion = db.eng.Cat.PersistentVersion()
			db.pinDeps(ent)
			db.mu.Unlock()
		}
	}
	if t.NeedsConstantPeriods && !db.UseFigure8SQL {
		return db.runNative(st, e, ent, t)
	}
	if len(t.Teardown) > 0 {
		defer func() {
			for _, s := range t.Teardown {
				if _, terr := e.ExecStmt(s); terr != nil && err == nil {
					err = terr
				}
			}
		}()
	}
	for _, s := range t.Setup {
		if _, err := e.ExecStmt(s); err != nil {
			return nil, fmt.Errorf("translation setup: %w", err)
		}
	}
	if t.NeedsConstantPeriods {
		// Figure-8 SQL path: the cp table holds the constant periods.
		if tab := db.eng.Cat.Table("taupsm_cp"); tab != nil {
			db.sm.cpLast.Set(int64(len(tab.Rows)))
			db.sm.cpTotal.Add(int64(len(tab.Rows)))
			if st != nil {
				st.cps = int64(len(tab.Rows))
			}
		}
	}
	db.recordFragments(st, t)
	if t.Main == nil {
		return &engine.Result{}, nil
	}
	return e.ExecStmt(t.Main)
}

// runNative executes a MAX-sliced translation without materializing
// catalog tables: the (cached) constant-period relation binds to the
// main statement as a table variable, so the catalog version never
// churns and repeated statements keep every cache warm. When the
// statement shape allows it, fragments evaluate in parallel.
func (db *DB) runNative(st *stmtState, e *engine.DB, ent *translationEntry, t *core.Translation) (*engine.Result, error) {
	ctxPeriod, err := db.contextPeriod(t)
	if err != nil {
		return nil, err
	}
	e.Proc.SetStage("constant-periods")
	cpTab := db.constantPeriodTable(st, e.Trace, t, ctxPeriod)
	db.sm.cpLast.Set(int64(len(cpTab.Rows)))
	db.sm.cpTotal.Add(int64(len(cpTab.Rows)))
	if st != nil {
		st.cps = int64(len(cpTab.Rows))
	}
	e.Proc.SetCPTotal(int64(len(cpTab.Rows)))
	e.Proc.SetFragsTotal(int64(len(cpTab.Rows)))
	e.Proc.SetStage("execute")
	db.recordFragments(st, t)
	if t.Main == nil {
		return &engine.Result{}, nil
	}
	safe := false
	if ent != nil {
		safe = ent.parallelSafe // immutable after construction
	} else {
		safe = db.computeParallelSafe(t)
	}
	// The shared prepared plan: cached on the translation entry so it
	// survives across executions of the same statement text (and is
	// dropped with the entry); a one-shot statement still gets a fresh
	// plan, which its own fragments share via the per-statement routine
	// calls.
	var prep *engine.Prepared
	if ent != nil {
		db.mu.Lock()
		if ent.prepared == nil {
			ent.prepared = engine.NewPrepared()
		}
		prep = ent.prepared
		db.mu.Unlock()
	} else {
		prep = engine.NewPrepared()
	}
	if par := db.Parallelism(); par > 1 && len(cpTab.Rows) > 1 && safe {
		return db.runParallelMain(st, e, t, cpTab, par, prep)
	}
	res, err := e.ExecPreparedWithTables(prep, t.Main, map[string]*storage.Table{"taupsm_cp": cpTab})
	if err == nil {
		// The serial path evaluates every period in one engine
		// statement, so period progress resolves at completion.
		e.Proc.AddCPDone(int64(len(cpTab.Rows)))
		e.Proc.AddFragsDone(int64(len(cpTab.Rows)))
	}
	return res, err
}

// recordFragments is traced-mode-only fragment accounting (it walks
// the reachable temporal tables), so the untraced hot path skips it.
// The slow-log-only path skips it too: fragment counting is the one
// piece of stage accounting whose cost scales with the data.
func (db *DB) recordFragments(st *stmtState, t *core.Translation) {
	if !st.traced() || t.ContextBegin == nil {
		return
	}
	if ctx, err := db.contextPeriod(t); err == nil {
		n := int64(db.countFragments(t.TemporalTables, ctx, t.Dim))
		db.sm.fragLast.Set(n)
		db.sm.fragTotal.Add(n)
		st.fragments = n
	}
}

// contextPeriod resolves a sequenced translation's temporal context
// [Begin, End) to concrete instants.
func (db *DB) contextPeriod(t *core.Translation) (temporal.Period, error) {
	bv, err := db.eng.EvalConstExpr(t.ContextBegin)
	if err != nil {
		return temporal.Period{}, err
	}
	ev, err := db.eng.EvalConstExpr(t.ContextEnd)
	if err != nil {
		return temporal.Period{}, err
	}
	return temporal.Period{Begin: bv.Int(), End: ev.Int()}, nil
}

// slicedPeriodCols returns the ordinals of the period columns a
// statement sliced along dim reads from tab: the transaction-time pair
// for a TT-sliced bitemporal table, the standard pair otherwise
// (mirrors core's slicePeriodCols).
func slicedPeriodCols(tab *storage.Table, dim sqlast.TemporalDimension) (int, int) {
	if dim == sqlast.DimTransaction && tab.Bitemporal() {
		return tab.TTBeginCol(), tab.TTEndCol()
	}
	return tab.BeginCol(), tab.EndCol()
}

// collectTimePoints gathers every begin/end instant stored in the
// given temporal tables along the sliced dimension.
func (db *DB) collectTimePoints(tables []string, dim sqlast.TemporalDimension) []int64 {
	var points []int64
	for _, tn := range tables {
		tab := db.eng.Cat.Table(tn)
		if tab == nil {
			continue
		}
		bc, ec := slicedPeriodCols(tab, dim)
		for _, row := range tab.Rows {
			points = append(points, row[bc].I, row[ec].I)
		}
	}
	return points
}

// countFragments counts the stored row fragments of the given temporal
// tables whose period along the sliced dimension overlaps the context —
// the candidate fragments a sequenced statement evaluates.
func (db *DB) countFragments(tables []string, ctx temporal.Period, dim sqlast.TemporalDimension) int {
	n := 0
	for _, tn := range tables {
		tab := db.eng.Cat.Table(tn)
		if tab == nil {
			continue
		}
		bc, ec := slicedPeriodCols(tab, dim)
		for _, row := range tab.Rows {
			if row[bc].I < ctx.End && ctx.Begin < row[ec].I {
				n++
			}
		}
	}
	return n
}

// Translate performs the pure source-to-source transformation: it
// parses one Temporal SQL/PSM statement and returns the conventional
// SQL/PSM script it compiles to, without executing anything.
func (db *DB) Translate(src string, strategy Strategy) (string, error) {
	stmt, err := sqlparser.ParseStatement(src)
	if err != nil {
		return "", err
	}
	t, err := db.tr.Translate(stmt, strategy)
	if err != nil {
		return "", err
	}
	return t.SQL(), nil
}

// TranslateStmt is Translate over a parsed statement, returning the
// structured translation.
func (db *DB) TranslateStmt(stmt sqlast.Stmt, strategy Strategy) (*core.Translation, error) {
	return db.tr.Translate(stmt, strategy)
}

// schemaInfo adapts the engine catalog to the translator.
type schemaInfo struct {
	cat *storage.Catalog
}

func (si *schemaInfo) IsTemporalTable(name string) bool {
	t := si.cat.Table(name)
	return t != nil && (t.ValidTime || t.TransactionTime)
}

func (si *schemaInfo) IsTransactionTable(name string) bool {
	t := si.cat.Table(name)
	return t != nil && t.TransactionTime
}

func (si *schemaInfo) IsBitemporalTable(name string) bool {
	t := si.cat.Table(name)
	return t != nil && t.ValidTime && t.TransactionTime
}

func (si *schemaInfo) IsTable(name string) bool {
	return si.cat.Table(name) != nil || si.cat.View(name) != nil
}

func (si *schemaInfo) Function(name string) *sqlast.CreateFunctionStmt {
	if r := si.cat.Routine(name); r != nil && r.Kind == storage.KindFunction {
		return r.Fn
	}
	return nil
}

func (si *schemaInfo) Procedure(name string) *sqlast.CreateProcedureStmt {
	if r := si.cat.Routine(name); r != nil && r.Kind == storage.KindProcedure {
		return r.Proc
	}
	return nil
}

func (si *schemaInfo) TableColumns(name string) []string {
	if t := si.cat.Table(name); t != nil {
		return t.Schema.Names()
	}
	if v := si.cat.View(name); v != nil {
		return v.Cols
	}
	return nil
}

var _ core.SchemaInfo = (*schemaInfo)(nil)
