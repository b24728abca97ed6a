// Package engine implements the conventional SQL/PSM execution engine
// that transformed (conventional) statements run on: a tree-walking
// relational evaluator with predicate pushdown and hash joins, DML and
// DDL execution, and a PSM interpreter for stored routines (compound
// blocks, control statements, cursors, handlers, and the table-valued
// variables per-statement slicing relies on).
//
// The engine deliberately speaks only conventional SQL/PSM: temporal
// statement modifiers are rejected here and must be removed by the
// stratum (internal/core) first, exactly as a stratum sits above the
// query evaluator in the paper's architecture (§III).
package engine

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"taupsm/internal/obs"
	"taupsm/internal/proc"
	"taupsm/internal/sqlast"
	"taupsm/internal/sqlparser"
	"taupsm/internal/stats"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// Stats counts engine work, letting benchmarks and tests observe the
// behavioural difference between slicing strategies (e.g. MAX invoking
// a routine once per constant period versus PERST invoking it once per
// satisfying tuple).
type Stats struct {
	RoutineCalls    int64 // stored routine invocations (logical; includes memo hits)
	RoutineMemoHits int64 // invocations answered from the function-result memo
	RowsScanned     int64 // base-table rows visited by scans and lookups
	RowsReturned    int64 // rows produced by executed query statements
	Statements      int64 // statements executed (including PSM statements)
	LogWrites       int64 // rows appended to tables (models DBMS log pressure)
	IntervalProbes  int64 // temporal overlap-index stab queries answered
	PlanReuseHits   int64 // source relations served from a shared prepared plan

	// SweepJoins is always zero: the engine has one overlap-join path,
	// the interval-index probe. The field is kept only because the
	// perfbench harness reads it.
	SweepJoins int64
}

// Reset zeroes the counters.
func (s *Stats) Reset() { *s = Stats{} }

// DB is an in-memory SQL/PSM database.
type DB struct {
	Cat   *storage.Catalog
	Stats Stats

	// Tracer, when non-nil, receives an "engine.query" span per
	// executed query statement and an "engine.routine" span per stored
	// routine invocation (one per evaluated fragment under MAX
	// slicing). Hot paths nil-check it first, so the disabled cost is
	// one pointer comparison.
	Tracer obs.Tracer

	// Trace is the span context engine spans attach under: spans carry
	// Trace.Trace as their trace ID and Trace.Span as their parent. The
	// stratum sets it per session (per statement, or per parallel
	// fragment worker); the zero value emits root spans, preserving the
	// pre-trace behavior for direct engine use.
	Trace obs.SpanContext

	// Metrics, when set alongside Tracer, additionally receives
	// routine-invocation latencies in the engine.routine_ns histogram.
	// The stratum shares its registry here.
	Metrics *obs.Metrics

	// Proc, when set on a session, is the in-flight process entry of
	// the user statement this session executes: the engine mirrors
	// batched progress counters (rows scanned, rows returned, routine
	// calls) into it and polls its kill switch at statement, scan and
	// routine boundaries for cooperative cancellation. Parallel
	// fragment workers inherit the same entry through NewSession, so
	// their progress aggregates into one set of counters. Every mirror
	// is nil-receiver safe; nil disables tracking.
	Proc *proc.Process

	// Procs is the shared in-flight process registry backing the
	// tau_stat_activity system table (NewSession copies the pointer).
	Procs *proc.Registry

	// TabStats is the table and workload statistics registry shared by
	// every session of this database (NewSession copies the pointer).
	// DML keeps the per-table temporal distributions incrementally
	// current through the journal hooks; stored-routine invocations are
	// profiled by name. Nil disables statistics maintenance — every
	// registry method is nil-receiver safe.
	TabStats *stats.Registry

	// routineNS caches the engine.routine_ns histogram handle.
	routineNS *obs.Histogram

	// Now is the engine's CURRENT_DATE in epoch days. Fixing it makes
	// current-semantics results deterministic in tests.
	Now int64

	// MaxRecursion bounds routine call nesting.
	MaxRecursion int

	// DisableCostOrdering turns off the evaluation of cheap predicates
	// before stored-routine invocations. Ablation switch: with it on,
	// MAX-sliced queries call routines once per *candidate* tuple
	// instead of once per satisfying tuple.
	DisableCostOrdering bool

	// DisableIndexes turns off the lazily built hash and interval
	// indexes, forcing full scans for equality and overlap lookups.
	// Ablation switch.
	DisableIndexes bool

	// DisablePlanReuse turns off the shared prepared-plan caches (source
	// relations and join hash tables) of
	// ExecPreparedWithTables, forcing every fragment execution to redo
	// its per-statement work. Ablation switch.
	DisablePlanReuse bool

	// plans caches the analysis phase of SELECT evaluation, shared by
	// all sessions of this database (see selPlan).
	plans *planCache

	// fnPure caches routine-purity verdicts, shared by all sessions.
	fnPure *sync.Map

	// Journal, when set on a session, collects the undo/redo records of
	// every statement the session executes, letting the stratum treat a
	// whole user statement — which a sequenced translation expands into
	// several engine statements — as one atomic, loggable unit. When
	// nil, each top-level statement still gets a private journal so a
	// failed statement rolls back its partial writes.
	Journal *Journal

	// writeGen counts DML/DDL executed through this session; the
	// function-result memo wipes itself when it changes.
	writeGen int64
}

// New returns an empty database with CURRENT_DATE set to the real
// current date.
func New() *DB {
	now := time.Now().UTC()
	return &DB{
		Cat:          storage.NewCatalog(),
		Now:          types.CivilToDays(now.Year(), int(now.Month()), now.Day()),
		MaxRecursion: 64,
		plans:        newPlanCache(),
		fnPure:       &sync.Map{},
	}
}

// Result is the outcome of executing one statement.
type Result struct {
	Cols     []string
	Rows     [][]types.Value
	Affected int
}

// ExecScript parses and executes a semicolon-separated script,
// returning the result of the last statement.
func (db *DB) ExecScript(src string) (*Result, error) {
	stmts, err := sqlparser.ParseScript(src)
	if err != nil {
		return nil, err
	}
	var last *Result
	for _, s := range stmts {
		last, err = db.ExecStmt(s)
		if err != nil {
			return nil, err
		}
	}
	return last, nil
}

// ExecStmt executes one (conventional) statement.
func (db *DB) ExecStmt(stmt sqlast.Stmt) (*Result, error) {
	ctx := &execCtx{db: db, memo: db.newFnMemo(), journal: db.Journal}
	return db.execTop(ctx, stmt)
}

// execTop runs one top-level statement with statement atomicity: on
// error, every change journaled after entry is undone, so a statement
// failing mid-scan (an UPDATE whose SET expression divides by zero on
// the Nth row, say) leaves no partial writes behind.
func (db *DB) execTop(ctx *execCtx, stmt sqlast.Stmt) (*Result, error) {
	if ctx.journal == nil {
		ctx.journal = NewJournal()
	}
	m := ctx.journal.mark()
	res, err := db.exec(ctx, stmt)
	if err != nil {
		ctx.journal.rollbackTo(m)
	}
	return res, err
}

// newFnMemo returns a fresh per-statement function-result memo, or nil
// in detailed mode: spans must correspond to real executions.
func (db *DB) newFnMemo() *fnMemoState {
	if db.Tracer != nil {
		return nil
	}
	return &fnMemoState{gen: db.writeGen}
}

func (db *DB) exec(ctx *execCtx, stmt sqlast.Stmt) (*Result, error) {
	if err := db.Proc.Killed(); err != nil {
		return nil, err
	}
	if db.Proc != nil {
		// Live journaled-change count: the user statement's changes
		// pending WAL commit, visible mid-statement in the process list.
		db.Proc.SetWALPending(int64(ctx.journal.Len()))
	}
	db.Stats.Statements++
	switch stmt.(type) {
	case *sqlast.InsertStmt, *sqlast.UpdateStmt, *sqlast.DeleteStmt,
		*sqlast.CreateTableStmt, *sqlast.DropTableStmt,
		*sqlast.CreateViewStmt, *sqlast.DropViewStmt,
		*sqlast.AlterAddValidTime, *sqlast.CreateFunctionStmt,
		*sqlast.CreateProcedureStmt, *sqlast.DropRoutineStmt:
		db.writeGen++
	}
	switch s := stmt.(type) {
	case *sqlast.TemporalStmt:
		if s.Mod == sqlast.ModCurrent {
			return db.exec(ctx, s.Body)
		}
		return nil, fmt.Errorf("engine: temporal statement modifier %s reached the conventional engine; translate it with the stratum first", s.Mod)
	case *sqlast.SelectStmt:
		return db.execQuery(ctx, s)
	case *sqlast.SetOpExpr:
		return db.execQuery(ctx, s)
	case *sqlast.ExplainStmt:
		return nil, fmt.Errorf("engine: EXPLAIN reached the conventional engine; it is a stratum-level statement")
	case *sqlast.AnalyzeStmt:
		return nil, fmt.Errorf("engine: ANALYZE reached the conventional engine; it is a stratum-level statement")
	case *sqlast.InsertStmt:
		return db.execInsert(ctx, s)
	case *sqlast.UpdateStmt:
		return db.execUpdate(ctx, s)
	case *sqlast.DeleteStmt:
		return db.execDelete(ctx, s)
	case *sqlast.CreateTableStmt:
		return db.execCreateTable(ctx, s)
	case *sqlast.DropTableStmt:
		// Inside a routine, a temporary table the routine created is
		// bound in its variable frame, not the shared catalog; dropping
		// it just removes the binding. Collection variables are not
		// eligible, and anything else falls through to the catalog.
		if ctx.depth > 0 && ctx.vars != nil && ctx.vars.dropTableVar(s.Name) {
			return &Result{}, nil
		}
		old := db.Cat.Table(s.Name)
		if !db.Cat.DropTable(s.Name) && !s.IfExists {
			return nil, fmt.Errorf("table %s does not exist", s.Name)
		}
		journalDropTable(ctx.journal, db.Cat, old)
		if old != nil && !old.Temporary {
			db.statsDrop(ctx.journal, old.Name)
		}
		return &Result{}, nil
	case *sqlast.CreateViewStmt:
		if s.Mod != sqlast.ModCurrent {
			return nil, fmt.Errorf("engine: temporal view %s reached the conventional engine", s.Name)
		}
		old := db.Cat.View(s.Name)
		db.Cat.PutView(&storage.View{Name: s.Name, Cols: s.Cols, Query: s.Query, Mod: s.Mod})
		journalPutView(ctx.journal, db.Cat, old, s)
		return &Result{}, nil
	case *sqlast.DropViewStmt:
		old := db.Cat.View(s.Name)
		if !db.Cat.DropView(s.Name) && !s.IfExists {
			return nil, fmt.Errorf("view %s does not exist", s.Name)
		}
		journalDropView(ctx.journal, db.Cat, old)
		return &Result{}, nil
	case *sqlast.AlterAddValidTime:
		return db.execAddValidTime(ctx, s)
	case *sqlast.CreateFunctionStmt:
		old := db.Cat.Routine(s.Name)
		if old != nil && !s.Replace {
			return nil, fmt.Errorf("routine %s already exists", s.Name)
		}
		sql := s.SQL()
		if old != nil && old.Kind == storage.KindFunction && old.Fn.SQL() == sql {
			// Identical re-registration is a no-op (Catalog.PutRoutine
			// would not bump the version either); don't journal or log it.
			return &Result{}, nil
		}
		db.Cat.PutRoutine(&storage.Routine{Kind: storage.KindFunction, Name: s.Name, Fn: s})
		journalPutRoutine(ctx.journal, db.Cat, old, s.Name, sql)
		return &Result{}, nil
	case *sqlast.CreateProcedureStmt:
		old := db.Cat.Routine(s.Name)
		if old != nil && !s.Replace {
			return nil, fmt.Errorf("routine %s already exists", s.Name)
		}
		sql := s.SQL()
		if old != nil && old.Kind == storage.KindProcedure && old.Proc.SQL() == sql {
			return &Result{}, nil
		}
		db.Cat.PutRoutine(&storage.Routine{Kind: storage.KindProcedure, Name: s.Name, Proc: s})
		journalPutRoutine(ctx.journal, db.Cat, old, s.Name, sql)
		return &Result{}, nil
	case *sqlast.DropRoutineStmt:
		old := db.Cat.Routine(s.Name)
		if !db.Cat.DropRoutine(s.Name) && !s.IfExists {
			return nil, fmt.Errorf("routine %s does not exist", s.Name)
		}
		journalDropRoutine(ctx.journal, db.Cat, old)
		return &Result{}, nil
	case *sqlast.CallStmt:
		return db.execCall(ctx, s)
	case *sqlast.CompoundStmt, *sqlast.SetStmt, *sqlast.IfStmt, *sqlast.CaseStmt,
		*sqlast.WhileStmt, *sqlast.RepeatStmt, *sqlast.LoopStmt, *sqlast.ForStmt,
		*sqlast.LeaveStmt, *sqlast.IterateStmt, *sqlast.ReturnStmt,
		*sqlast.OpenStmt, *sqlast.FetchStmt, *sqlast.CloseStmt, *sqlast.SignalStmt:
		if ctx.vars == nil {
			// Anonymous block executed at top level.
			if _, ok := stmt.(*sqlast.CompoundStmt); ok {
				ctx2 := &execCtx{db: db, vars: newFrame(nil), memo: ctx.memo, journal: ctx.journal, prep: ctx.prep}
				if err := db.execPSM(ctx2, stmt); err != nil {
					return nil, err
				}
				return &Result{}, nil
			}
			return nil, fmt.Errorf("engine: PSM statement %T outside a routine body", stmt)
		}
		if err := db.execPSM(ctx, stmt); err != nil {
			return nil, err
		}
		return &Result{}, nil
	}
	return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
}

func (db *DB) execCreateTable(ctx *execCtx, s *sqlast.CreateTableStmt) (*Result, error) {
	// A temporary table created inside a routine is frame-local: each
	// invocation gets a private instance bound in the variable frame,
	// invisible to the shared catalog. This keeps routines that stage
	// intermediate results in temp tables safe to run concurrently
	// (the parallel-safety analysis discounts such writes) and scopes
	// the table's lifetime to the call.
	frameLocal := s.Temporary && ctx.depth > 0 && ctx.vars != nil
	if frameLocal && ctx.vars.getTable(s.Name) != nil {
		return nil, fmt.Errorf("table %s already exists", s.Name)
	}
	if db.Cat.Table(s.Name) != nil {
		return nil, fmt.Errorf("table %s already exists", s.Name)
	}
	var cols []storage.Column
	var rows [][]types.Value
	switch {
	case len(s.Cols) > 0:
		for _, c := range s.Cols {
			cols = append(cols, storage.Column{Name: c.Name, Type: c.Type})
		}
	case s.AsQuery != nil:
		res, err := db.evalQuery(ctx, s.AsQuery)
		if err != nil {
			return nil, err
		}
		for i, name := range res.Cols {
			k := types.KindString
			for _, r := range res.Rows {
				if !r[i].IsNull() {
					k = r[i].Kind
					break
				}
			}
			cols = append(cols, storage.Column{Name: name, Type: kindToType(k)})
		}
		if s.WithData {
			rows = res.Rows
		}
	}
	if s.ValidTime || s.TransactionTime {
		cols = append(cols,
			storage.Column{Name: "begin_time", Type: sqlast.TypeName{Base: "DATE"}},
			storage.Column{Name: "end_time", Type: sqlast.TypeName{Base: "DATE"}})
	}
	if s.ValidTime && s.TransactionTime {
		// Bitemporal layout: the valid-time pair above plus the
		// transaction-time pair as the final two columns.
		cols = append(cols,
			storage.Column{Name: "tt_begin_time", Type: sqlast.TypeName{Base: "DATE"}},
			storage.Column{Name: "tt_end_time", Type: sqlast.TypeName{Base: "DATE"}})
	}
	t := storage.NewTable(s.Name, storage.NewSchema(cols))
	t.ValidTime = s.ValidTime
	t.TransactionTime = s.TransactionTime
	t.Temporary = s.Temporary
	t.Rows = rows
	t.Bump()
	if frameLocal {
		ctx.vars.setTableVar(strings.ToLower(s.Name), t)
		return &Result{Affected: len(rows)}, nil
	}
	db.Cat.PutTable(t)
	journalPutTable(ctx.journal, db.Cat, nil, t)
	if !t.Temporary {
		db.statsReset(ctx.journal, t.Name, false)
	}
	return &Result{Affected: len(rows)}, nil
}

func (db *DB) execAddValidTime(ctx *execCtx, s *sqlast.AlterAddValidTime) (*Result, error) {
	t := db.Cat.Table(s.Table)
	if t == nil {
		return nil, fmt.Errorf("table %s does not exist", s.Table)
	}
	if t.ValidTime && s.Transaction && !t.TransactionTime {
		// Migrate a valid-time table to bitemporal: append the
		// transaction-time pair; every existing version becomes believed
		// from now on.
		cols := append(append([]storage.Column{}, t.Schema.Cols...),
			storage.Column{Name: "tt_begin_time", Type: sqlast.TypeName{Base: "DATE"}},
			storage.Column{Name: "tt_end_time", Type: sqlast.TypeName{Base: "DATE"}})
		nt := storage.NewTable(t.Name, storage.NewSchema(cols))
		nt.ValidTime = true
		nt.TransactionTime = true
		nt.Temporary = t.Temporary
		for _, r := range t.Rows {
			nr := append(append([]types.Value{}, r...), types.NewDate(db.Now), types.NewDate(types.Forever))
			nt.Rows = append(nt.Rows, nr)
		}
		nt.Bump()
		db.Cat.PutTable(nt)
		journalPutTable(ctx.journal, db.Cat, t, nt)
		if !nt.Temporary {
			db.statsReset(ctx.journal, nt.Name, true)
		}
		return &Result{Affected: len(nt.Rows)}, nil
	}
	if t.ValidTime || t.TransactionTime {
		return nil, fmt.Errorf("table %s already has temporal support", s.Table)
	}
	cols := append(append([]storage.Column{}, t.Schema.Cols...),
		storage.Column{Name: "begin_time", Type: sqlast.TypeName{Base: "DATE"}},
		storage.Column{Name: "end_time", Type: sqlast.TypeName{Base: "DATE"}})
	nt := storage.NewTable(t.Name, storage.NewSchema(cols))
	nt.ValidTime = !s.Transaction
	nt.TransactionTime = s.Transaction
	nt.Temporary = t.Temporary
	for _, r := range t.Rows {
		nr := append(append([]types.Value{}, r...), types.NewDate(db.Now), types.NewDate(types.Forever))
		nt.Rows = append(nt.Rows, nr)
	}
	nt.Bump()
	db.Cat.PutTable(nt)
	journalPutTable(ctx.journal, db.Cat, t, nt)
	if !nt.Temporary {
		db.statsReset(ctx.journal, nt.Name, true)
	}
	return &Result{Affected: len(nt.Rows)}, nil
}

func kindToType(k types.Kind) sqlast.TypeName {
	switch k {
	case types.KindInt:
		return sqlast.TypeName{Base: "INTEGER"}
	case types.KindFloat:
		return sqlast.TypeName{Base: "FLOAT"}
	case types.KindDate:
		return sqlast.TypeName{Base: "DATE"}
	case types.KindBool:
		return sqlast.TypeName{Base: "BOOLEAN"}
	default:
		return sqlast.TypeName{Base: "VARCHAR"}
	}
}

// execQuery evaluates a query statement, counting rows returned and
// emitting an "engine.query" span when a tracer is attached.
func (db *DB) execQuery(ctx *execCtx, q sqlast.QueryExpr) (*Result, error) {
	if db.Tracer == nil {
		res, err := db.evalQuery(ctx, q)
		if err == nil {
			db.Stats.RowsReturned += int64(len(res.Rows))
			db.Proc.AddRows(int64(len(res.Rows)))
		}
		return res, err
	}
	start := time.Now()
	res, err := db.evalQuery(ctx, q)
	d := time.Since(start)
	rows := 0
	if err == nil {
		rows = len(res.Rows)
		db.Stats.RowsReturned += int64(rows)
		db.Proc.AddRows(int64(rows))
	}
	db.Tracer.Span(obs.Span{Name: "engine.query", Start: start, Dur: d,
		Trace: db.Trace.Trace, ID: obs.NewSpanID(), Parent: db.Trace.Span,
		Attrs: []obs.Attr{obs.AInt("rows", int64(rows))}})
	return res, err
}

// traceRoutine times one stored-routine invocation when a tracer is
// attached; it returns nil (for a one-branch fast path) otherwise. The
// per-invocation latency also feeds the engine.routine_ns histogram —
// under MAX slicing that is the per-fragment evaluation timing, one
// invocation per (satisfying tuple, constant period).
func (db *DB) traceRoutine(name string) func() {
	if db.Tracer == nil {
		return nil
	}
	start := time.Now()
	return func() {
		d := time.Since(start)
		db.Tracer.Span(obs.Span{Name: "engine.routine", Start: start, Dur: d,
			Trace: db.Trace.Trace, ID: obs.NewSpanID(), Parent: db.Trace.Span,
			Attrs: []obs.Attr{obs.A("routine", name)}})
		if db.Metrics != nil {
			if db.routineNS == nil {
				db.routineNS = db.Metrics.Histogram("engine.routine_ns")
			}
			db.routineNS.Record(d)
		}
		db.TabStats.NoteRoutineTime(name, d)
	}
}

// noteRoutineCall counts one logical stored-routine invocation in both
// the session's statement statistics and the shared workload profile.
func (db *DB) noteRoutineCall(name string) {
	db.Stats.RoutineCalls++
	db.Proc.AddRoutineCalls(1)
	db.TabStats.NoteRoutineCall(name)
}

// statsReset installs fresh statistics for a created or replaced table
// and journals the restoration of the previous entry, so DDL that rolls
// back leaves the registry exactly as it found it. preserve keeps the
// previous entry's DML history (ALTER ADD VALIDTIME replaces the table
// object, not the table).
func (db *DB) statsReset(j *Journal, name string, preserve bool) {
	if db.TabStats == nil {
		return
	}
	reg := db.TabStats
	prev := reg.Reset(name, preserve)
	j.record(func() { reg.Restore(name, prev) }, nil)
}

// statsDrop removes a dropped table's statistics entry, journaling its
// restoration.
func (db *DB) statsDrop(j *Journal, name string) {
	if db.TabStats == nil {
		return
	}
	reg := db.TabStats
	prev := reg.Drop(name)
	j.record(func() { reg.Restore(name, prev) }, nil)
}

// EvalConstExpr evaluates an expression with no row or variable
// context (literals, CURRENT_DATE, arithmetic); the stratum uses it to
// resolve temporal-context bounds.
func (db *DB) EvalConstExpr(e sqlast.Expr) (types.Value, error) {
	return db.evalExpr(&execCtx{db: db}, e)
}
