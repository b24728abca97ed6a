package taupsm

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"taupsm/internal/check"
	"taupsm/internal/core"
	"taupsm/internal/obs"
	"taupsm/internal/sqlast"
	"taupsm/internal/temporal"
	"taupsm/internal/types"
)

// Explain describes how one Temporal SQL/PSM statement would execute —
// the translation plan and the slicing statistics — without executing
// it. It is produced by DB.Explain and by the SQL-level
// `EXPLAIN <statement>` (e.g. `EXPLAIN VALIDTIME SELECT ...`).
//
// The slicing numbers are exact, not estimates: ConstantPeriods and
// Fragments are computed from the stored data with the same code the
// executor uses, so running the statement immediately afterwards
// reports the same values through DB.Metrics (stratum.constant_periods
// and stratum.fragments).
type Explain struct {
	// Kind is the statement's temporal class: current, sequenced, or
	// nonsequenced.
	Kind string
	// Strategy is the slicing strategy a sequenced statement would use
	// (after resolving Auto with the §VII-F heuristic).
	Strategy Strategy
	// AutoReason names the heuristic clause that decided Strategy when
	// the database strategy is Auto; empty for fixed strategies.
	AutoReason string
	// TemporalTables are the temporal tables reachable from the
	// statement, directly or through routines.
	TemporalTables []string
	// Routines counts the transformed routine clones (curr_/max_/ps_)
	// the translation registers before running.
	Routines int
	// ContextBegin/ContextEnd are the resolved temporal context bounds
	// (sequenced statements only).
	ContextBegin, ContextEnd string
	// ConstantPeriods is the number of constant periods MAX slicing
	// computes for the context — the number of times MAX evaluates the
	// statement. Zero for PERST and non-sequenced statements.
	ConstantPeriods int
	// Fragments counts the stored row fragments of the reachable
	// temporal tables overlapping the context — the candidate
	// fragments a sequenced statement evaluates.
	Fragments int
	// HasStats reports that the statistics registry supplied the
	// estimates below; EstConstantPeriods and EstRows are the registry's
	// predictions of ConstantPeriods and Fragments, shown side by side
	// with the exact numbers so estimate drift is visible per statement.
	HasStats           bool
	EstConstantPeriods int64
	EstRows            int64
	// UsesPerPeriodCursor reports the PERST per-period cursor pattern
	// (the heuristic's clause b).
	UsesPerPeriodCursor bool
	// Parallelism is the worker count execution would use for this
	// statement: min(DB.Parallelism, ConstantPeriods) when the parallel
	// MAX fragment path applies (statement shape safe, more than one
	// period), 1 otherwise. Zero for non-sequenced statements.
	Parallelism int
	// TranslationCacheHit and CPCacheHit report whether the translation
	// and constant-period caches would serve this statement without
	// recomputation. The probes are read-only — EXPLAIN neither fills
	// the caches nor moves their hit/miss counters.
	TranslationCacheHit bool
	CPCacheHit          bool
	// PlanReuse reports whether a shared prepared plan for this
	// statement already exists (built by a prior execution and still
	// attached to its translation-cache entry): executing now would
	// serve source relations and join hash tables from it instead of
	// rebuilding them per fragment. Read-only probe, like
	// TranslationCacheHit.
	PlanReuse bool
	// Durability summarizes the database's write-ahead-log state (epoch,
	// log bytes, what recovery replayed) for persistent databases; empty
	// for in-memory ones.
	Durability string
	// Reads and Writes are the statement's inferred effect sets: the
	// stored tables (and views) it can read or write, each with the
	// temporal dimensions touched, e.g. "item[validtime]". Computed by
	// the interprocedural effect analysis — the same summary that gates
	// parallel evaluation and revalidates the caches.
	Reads, Writes []string
	// Signatures are the typed signatures of the routine clones the
	// translation registers, e.g. "max_get_item_price(char, date) -> float".
	Signatures []string
	// SQL is the conventional SQL/PSM script the statement compiles to.
	SQL string
	// Lint holds the static analyzer's findings for the statement
	// against the live catalog (warnings and errors; EXPLAIN reports
	// rather than rejects).
	Lint []Diagnostic
	// Analyzed holds what actually happened when the statement ran —
	// set only by EXPLAIN ANALYZE / DB.ExplainAnalyze, nil for plain
	// EXPLAIN.
	Analyzed *AnalyzeInfo
}

// AnalyzeInfo is the observed execution profile EXPLAIN ANALYZE
// attaches to the plan: the trace identity, the per-stage wall-clock
// breakdown, and the actual counts the plan only predicted.
type AnalyzeInfo struct {
	// TraceID identifies the execution's trace; its full span tree is
	// retrievable from DB.TraceBuffer and the /traces endpoint.
	TraceID obs.TraceID
	// ProcessID is the process-list entry the execution registered,
	// joining this output against slow-log lines and tau_stat_activity
	// history (0 when the registry was disabled).
	ProcessID int64
	// Total is the statement's end-to-end duration on the span clock
	// (the stratum.statement root span's duration).
	Total time.Duration
	// Per-stage durations; stages that did not run are zero.
	Lint, Translate, CP, Execute, Commit, Fsync time.Duration
	// Result and work counts observed during execution.
	Rows, Affected            int
	RowsScanned, RoutineCalls int64
	// ConstantPeriods and Fragments are the actual slicing numbers (MAX
	// only; Fragments requires tracing, which EXPLAIN ANALYZE forces).
	ConstantPeriods, Fragments int64
	// Workers is the number of parallel fragment workers that ran (0
	// when the statement executed serially).
	Workers int
	// Cache outcomes: whether each cache was consulted and whether it
	// hit — the observed counterparts of the plan's would-hit probes.
	TranslationCacheProbed, TranslationCacheHit bool
	CPCacheProbed, CPCacheHit                   bool
	// WAL cost of the statement's durable commit (persistent databases
	// only): bytes appended and fsync batches issued.
	WALBytes, WALFsyncs int64
	// PlanReuseHits counts source relations and join hash tables this
	// statement served from the shared prepared plan. It is this
	// statement's delta, not the plan's lifetime total — repeated
	// EXPLAIN ANALYZE of one statement reports comparable figures even
	// though the plan is shared across the batch.
	PlanReuseHits int64
}

// Explain parses one statement (a bare statement or an EXPLAIN
// statement) and describes how it would execute, without executing it.
func (db *DB) Explain(src string) (*Explain, error) {
	stmts, err := db.parseScript(context.Background(), src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("expected exactly one statement, found %d", len(stmts))
	}
	stmt := stmts[0]
	if ex, ok := stmt.(*sqlast.ExplainStmt); ok {
		stmt = ex.Body
	}
	return db.ExplainParsed(stmt)
}

// ExplainAnalyze parses one statement, executes it under a forced
// trace, and returns the plan annotated with the observed execution
// profile (Explain.Analyzed). The statement really runs: EXPLAIN
// ANALYZE of a DML statement modifies (and durably commits) data.
func (db *DB) ExplainAnalyze(src string) (*Explain, error) {
	stmts, err := db.parseScript(context.Background(), src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("expected exactly one statement, found %d", len(stmts))
	}
	stmt := stmts[0]
	if ex, ok := stmt.(*sqlast.ExplainStmt); ok {
		stmt = ex.Body
	}
	return db.explainAnalyzeParsed(context.Background(), stmt)
}

// explainAnalyzeParsed computes the plan first (so the would-hit cache
// probes reflect the state the execution is about to see), then
// executes the statement under a forced trace and attaches the
// observed profile.
func (db *DB) explainAnalyzeParsed(ctx context.Context, body sqlast.Stmt) (*Explain, error) {
	if _, ok := body.(*sqlast.ExplainStmt); ok {
		return nil, fmt.Errorf("EXPLAIN cannot be nested")
	}
	e, err := db.ExplainParsed(body)
	if err != nil {
		return nil, err
	}
	if ts := sessionFromContext(ctx); ts == nil || ts.tr == nil {
		ctx, _ = db.WithTrace(ctx)
	}
	_, st, err := db.execStatement(ctx, body)
	if err != nil {
		return nil, err
	}
	e.Analyzed = &AnalyzeInfo{
		TraceID:                st.root.Trace,
		ProcessID:              st.procID,
		Total:                  st.total,
		Lint:                   st.lintDur,
		Translate:              st.translateDur,
		CP:                     st.cpDur,
		Execute:                st.executeDur,
		Commit:                 st.commitDur,
		Fsync:                  st.fsyncDur,
		Rows:                   st.rows,
		Affected:               st.affected,
		RowsScanned:            st.rowsScanned,
		RoutineCalls:           st.routineCalls,
		ConstantPeriods:        st.cps,
		Fragments:              st.fragments,
		Workers:                st.workers,
		TranslationCacheProbed: st.transProbed,
		TranslationCacheHit:    st.transHit,
		CPCacheProbed:          st.cpProbed,
		CPCacheHit:             st.cpHit,
		WALBytes:               st.walBytes,
		WALFsyncs:              st.walFsyncs,
		PlanReuseHits:          st.planHits,
	}
	return e, nil
}

// ExplainParsed is Explain over a parsed statement.
func (db *DB) ExplainParsed(stmt sqlast.Stmt) (*Explain, error) {
	if _, ok := stmt.(*sqlast.ExplainStmt); ok {
		return nil, fmt.Errorf("EXPLAIN cannot be nested")
	}
	db.sm.explain.Inc()
	e := &Explain{Kind: stmtKind(stmt), Lint: db.LintParsed(stmt), Durability: db.durabilityNote()}

	var t *core.Translation
	var err error
	if ts, ok := stmt.(*sqlast.TemporalStmt); ok && ts.Mod == sqlast.ModSequenced {
		strategy := db.strategy
		if strategy == Auto {
			var reason core.Reason
			strategy, reason = db.chooseStrategy(ts)
			e.AutoReason = string(reason)
		}
		t, err = db.tr.Translate(stmt, strategy)
		if err != nil && errors.Is(err, core.ErrNotTransformable) && strategy == PerStatement && db.strategy == Auto {
			t, err = db.tr.Translate(stmt, Max)
		}
	} else {
		t, err = db.tr.Translate(stmt, db.strategy)
	}
	if err != nil {
		return nil, err
	}

	e.Strategy = t.Strategy
	e.TemporalTables = append([]string(nil), t.TemporalTables...)
	e.Routines = len(t.Routines)
	e.UsesPerPeriodCursor = t.UsesPerPeriodCursor
	e.SQL = t.SQL()

	if t.ContextBegin != nil {
		ctx, cerr := db.contextPeriod(t)
		if cerr != nil {
			return nil, cerr
		}
		e.ContextBegin = types.FormatDate(ctx.Begin)
		e.ContextEnd = types.FormatDate(ctx.End)
		e.Fragments = db.countFragments(t.TemporalTables, ctx, t.Dim)
		if est, ok := db.statsEstimates(t.TemporalTables, false, ctx.Begin, ctx.End); ok {
			e.HasStats = true
			e.EstConstantPeriods = est.ConstantPeriods
			e.EstRows = est.Rows
		}
		if t.NeedsConstantPeriods {
			e.ConstantPeriods = len(temporal.ConstantPeriods(db.collectTimePoints(t.TemporalTables, t.Dim), ctx))
			if !db.UseFigure8SQL {
				e.CPCacheHit = db.peekCP(cpKey(ctx, t.TemporalTables, t.Dim))
			}
		}
	}
	// sum summarizes the user's statement (not the translated plan), so
	// the read/write rows carry the temporal dimension the user touches.
	var sum *check.Summary
	if ts, ok := stmt.(*sqlast.TemporalStmt); ok && ts.Mod == sqlast.ModSequenced {
		// Mirror the execution path exactly: the same cache key a
		// subsequent ExecParsed would look up, and the same gate
		// runNative applies before spawning fragment workers. A cache hit
		// also serves the effect summaries and the parallel-safety
		// verdict, so repeated EXPLAIN runs no effect analysis at all.
		safe := false
		pinned := false
		if ent := db.lookupTranslation(db.translationKey(stmt)); ent != nil {
			e.TranslationCacheHit = true
			db.mu.Lock()
			e.PlanReuse = ent.prepared != nil
			sum = ent.origSummary
			safe = ent.parallelSafe
			db.mu.Unlock()
			pinned = true
		}
		if !pinned {
			safe = chunkOrderSafeMain(t) && db.mainSummary(t).SharedWriteFree()
		}
		e.Parallelism = 1
		if t.NeedsConstantPeriods && !db.UseFigure8SQL {
			if par := db.Parallelism(); par > 1 && e.ConstantPeriods > 1 && safe {
				e.Parallelism = par
				if e.ConstantPeriods < par {
					e.Parallelism = e.ConstantPeriods
				}
			}
		}
	}
	if sum == nil {
		sum = check.Summarize(check.FromStorage(db.eng.Cat), nil, stmt)
	}
	for _, name := range sum.ReadList() {
		e.Reads = append(e.Reads, fmt.Sprintf("%s[%s]", name, sum.Reads[name]))
	}
	for _, name := range sum.WriteList() {
		e.Writes = append(e.Writes, fmt.Sprintf("%s[%s]", name, sum.Writes[name]))
	}
	e.Signatures = routineSignatures(t)
	return e, nil
}

// routineSignatures renders the typed signatures of the translation's
// routine clones from their declared parameter and return types.
func routineSignatures(t *core.Translation) []string {
	kind := func(tn sqlast.TypeName) string {
		if tn.IsCollection() {
			return "table"
		}
		return strings.ToLower(tn.Kind().String())
	}
	params := func(ps []sqlast.ParamDef) string {
		parts := make([]string, len(ps))
		for i, p := range ps {
			parts[i] = kind(p.Type)
			if m := p.Mode.String(); m != "" && m != "IN" {
				parts[i] = strings.ToLower(m) + " " + parts[i]
			}
		}
		return strings.Join(parts, ", ")
	}
	var out []string
	for _, r := range t.Routines {
		switch x := r.(type) {
		case *sqlast.CreateFunctionStmt:
			out = append(out, fmt.Sprintf("%s(%s) -> %s", x.Name, params(x.Params), kind(x.Returns)))
		case *sqlast.CreateProcedureStmt:
			out = append(out, fmt.Sprintf("%s(%s)", x.Name, params(x.Params)))
		}
	}
	return out
}

// Result renders the explanation as a two-column (property, value)
// result set — what the SQL-level EXPLAIN statement returns.
func (e *Explain) Result() *Result {
	out := &Result{Columns: []string{"property", "value"}}
	add := func(prop, val string) {
		out.Rows = append(out.Rows, []Value{
			{inner: types.NewString(prop)}, {inner: types.NewString(val)},
		})
	}
	add("kind", e.Kind)
	if e.Kind == "sequenced" {
		add("strategy", e.Strategy.String())
		if e.AutoReason != "" {
			add("auto_reason", e.AutoReason)
		}
		add("context", fmt.Sprintf("[%s, %s)", e.ContextBegin, e.ContextEnd))
	}
	if len(e.TemporalTables) > 0 {
		add("temporal_tables", strings.Join(e.TemporalTables, ", "))
	}
	if len(e.Reads) > 0 {
		add("reads", strings.Join(e.Reads, ", "))
	}
	if len(e.Writes) > 0 {
		add("writes", strings.Join(e.Writes, ", "))
	}
	if e.Routines > 0 {
		add("routines", fmt.Sprintf("%d", e.Routines))
	}
	for i, sig := range e.Signatures {
		prop := ""
		if i == 0 {
			prop = "typed_signature"
		}
		add(prop, sig)
	}
	if e.Kind == "sequenced" {
		if e.Strategy == Max {
			add("constant_periods", fmt.Sprintf("%d", e.ConstantPeriods))
		}
		if e.HasStats {
			add("est_constant_periods", fmt.Sprintf("%d", e.EstConstantPeriods))
		}
		add("fragments", fmt.Sprintf("%d", e.Fragments))
		if e.HasStats {
			add("est_rows", fmt.Sprintf("%d", e.EstRows))
		}
		if e.UsesPerPeriodCursor {
			add("per_period_cursor", "true")
		}
		if e.Parallelism > 0 {
			add("parallelism", fmt.Sprintf("%d", e.Parallelism))
		}
		hitMiss := func(hit bool) string {
			if hit {
				return "hit"
			}
			return "miss"
		}
		add("translation_cache", hitMiss(e.TranslationCacheHit))
		if e.Strategy == Max {
			add("cp_cache", hitMiss(e.CPCacheHit))
		}
		if e.PlanReuse {
			add("plan_reuse", "reuse")
		} else {
			add("plan_reuse", "new")
		}
	}
	if a := e.Analyzed; a != nil {
		add("actual_time", a.Total.String())
		if a.TraceID != 0 {
			add("trace_id", a.TraceID.String())
		}
		if a.ProcessID != 0 {
			add("process_id", fmt.Sprintf("%d", a.ProcessID))
		}
		stage := func(name string, d time.Duration) {
			if d > 0 {
				add("actual_"+name, d.String())
			}
		}
		stage("lint", a.Lint)
		stage("translate", a.Translate)
		stage("cp", a.CP)
		stage("execute", a.Execute)
		stage("commit", a.Commit)
		stage("fsync", a.Fsync)
		add("actual_rows", fmt.Sprintf("%d", a.Rows))
		if a.Affected > 0 {
			add("actual_affected", fmt.Sprintf("%d", a.Affected))
		}
		if a.RowsScanned > 0 {
			add("actual_rows_scanned", fmt.Sprintf("%d", a.RowsScanned))
		}
		if a.RoutineCalls > 0 {
			add("actual_routine_calls", fmt.Sprintf("%d", a.RoutineCalls))
		}
		if e.Kind == "sequenced" && e.Strategy == Max {
			add("actual_constant_periods", fmt.Sprintf("%d", a.ConstantPeriods))
			add("actual_fragments", fmt.Sprintf("%d", a.Fragments))
			workers := a.Workers
			if workers == 0 {
				workers = 1
			}
			add("actual_workers", fmt.Sprintf("%d", workers))
		}
		if e.Kind == "sequenced" {
			add("actual_plan_reuse", fmt.Sprintf("%d", a.PlanReuseHits))
		}
		hitMiss := func(hit bool) string {
			if hit {
				return "hit"
			}
			return "miss"
		}
		if a.TranslationCacheProbed {
			add("actual_translation_cache", hitMiss(a.TranslationCacheHit))
		}
		if a.CPCacheProbed {
			add("actual_cp_cache", hitMiss(a.CPCacheHit))
		}
		if a.WALBytes > 0 || a.WALFsyncs > 0 {
			add("actual_wal_bytes", fmt.Sprintf("%d", a.WALBytes))
			add("actual_wal_fsyncs", fmt.Sprintf("%d", a.WALFsyncs))
		}
	}
	if e.Durability != "" {
		add("durability", e.Durability)
	}
	for i, d := range e.Lint {
		prop := ""
		if i == 0 {
			prop = "lint"
		}
		add(prop, d.String())
	}
	for i, line := range strings.Split(strings.TrimRight(e.SQL, "\n"), "\n") {
		prop := ""
		if i == 0 {
			prop = "plan"
		}
		add(prop, line)
	}
	return out
}

// String renders the explanation as the same aligned text table the
// SQL-level EXPLAIN prints.
func (e *Explain) String() string { return e.Result().String() }
