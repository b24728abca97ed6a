package taupsm

import (
	"fmt"
	"strings"
	"time"

	"taupsm/internal/check"
	"taupsm/internal/core"
	"taupsm/internal/engine"
	"taupsm/internal/obs"
	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/temporal"
	"taupsm/internal/types"
)

// Cache sizes. The caches are wiped wholesale when they outgrow their
// cap — staleness is handled by validation, the caps only bound memory
// when many one-shot statements flow through.
const (
	parseCacheCap       = 256
	translationCacheCap = 256
	cpCacheCap          = 1024
)

// tableStamp pins one table's identity and data version at cache-fill
// time. A stamp matches while the same table object (same id — a
// DROP/CREATE cycle changes it) holds the same row data (version —
// every DML bumps it). A stamp of a then-missing table matches while
// the table is still missing.
type tableStamp struct {
	name    string
	id      int64
	version int64
}

// tableStamps captures stamps for the named catalog tables.
func (db *DB) tableStamps(tables []string) []tableStamp {
	out := make([]tableStamp, 0, len(tables))
	for _, name := range tables {
		if t := db.eng.Cat.Table(name); t != nil {
			out = append(out, tableStamp{name: name, id: t.ID(), version: t.Version()})
		} else {
			out = append(out, tableStamp{name: name, id: -1, version: -1})
		}
	}
	return out
}

func (db *DB) stampsValid(stamps []tableStamp) bool {
	for _, s := range stamps {
		t := db.eng.Cat.Table(s.name)
		if t == nil {
			if s.id != -1 {
				return false
			}
			continue
		}
		if t.ID() != s.id || t.Version() != s.version {
			return false
		}
	}
	return true
}

// translationEntry caches one statement's translation. Its fast path
// is a PersistentVersion stamp (catVersion): while no durable-schema
// DDL ran at all, the entry is trivially current. When the version has
// moved, the entry falls back to the dependency set the effect
// analysis inferred — the routines, tables, and views the statement
// can actually reach — and re-pins itself if none of them changed, so
// unrelated DDL no longer evicts warm translations. Independently of
// both levels, the referenced temporal tables must hold the same data
// (stamps — the Auto heuristic reads row counts, so DML can change
// the chosen strategy; they also pin table identity, so a temporal
// temp table being dropped or recreated invalidates the entry even
// though it leaves the persistent version untouched).
type translationEntry struct {
	t          *core.Translation
	catVersion int64
	stamps     []tableStamp
	// summary is the interprocedural effect summary of the translated
	// main statement; it feeds EXPLAIN's read/write-set rows and names
	// part of the dependency set below.
	summary *check.Summary
	// origSummary summarizes the pre-translation statement. The
	// translation embeds clones of the routines the statement calls
	// (MAX renames them max_<name>), so the translated main no longer
	// references the originals — but redefining an original must still
	// invalidate the entry. Its dependency names join the set below.
	origSummary *check.Summary
	// depRoutines/depTables/depViews snapshot, per consulted name, the
	// catalog object the name resolved to at pin time (nil for absent).
	// Pointer identity is the validity condition: redefining a routine,
	// recreating or altering a table (ALTER ... ADD VALIDTIME installs a
	// fresh *storage.Table), or replacing a view all change the pointer.
	depRoutines map[string]*storage.Routine
	depTables   map[string]*storage.Table
	depViews    map[string]*storage.View
	// registered marks that t.Routines have been installed in the
	// catalog; later executions of this entry skip re-registration
	// (the catVersion check guarantees they are still there).
	registered bool
	// parallelSafe caches the statement-shape analysis gating parallel
	// fragment evaluation.
	parallelSafe bool
	// prepared is the entry's shared prepared plan: source relations
	// and join hash tables built by one execution and reused — under
	// per-table version validation — by every later execution and by
	// parallel workers. Created lazily under db.mu; dropped with the
	// entry (cache wipe or invalidation), which is the only eviction
	// the plan itself needs.
	prepared *engine.Prepared
}

// renderStmtSQL renders a statement back to SQL text, the translation
// cache's key ("" when the node cannot render itself). Text keys — not
// AST pointers — let EXPLAIN probe for would-hit with its separately
// parsed body, and make repeated Query(src) calls hit regardless of
// parse-cache state.
func renderStmtSQL(stmt sqlast.Stmt) string {
	if s, ok := stmt.(interface{ SQL() string }); ok {
		return s.SQL()
	}
	return ""
}

func (db *DB) translationKey(stmt sqlast.Stmt) string {
	text := renderStmtSQL(stmt)
	if text == "" {
		return ""
	}
	return text + "\x00" + db.strategy.String()
}

func (ent *translationEntry) depSummaries() []*check.Summary {
	out := make([]*check.Summary, 0, 2)
	if ent.summary != nil {
		out = append(out, ent.summary)
	}
	if ent.origSummary != nil {
		out = append(out, ent.origSummary)
	}
	return out
}

// pinDeps snapshots the entry's dependency set against the live
// catalog. Called at fill time and again after routine registration
// (which installs the translation's clones, changing what their names
// resolve to). Caller holds db.mu when the entry is shared.
func (db *DB) pinDeps(ent *translationEntry) {
	ent.depRoutines = map[string]*storage.Routine{}
	ent.depTables = map[string]*storage.Table{}
	ent.depViews = map[string]*storage.View{}
	for _, sum := range ent.depSummaries() {
		for name := range sum.Routines {
			ent.depRoutines[name] = db.eng.Cat.Routine(name)
		}
		for name := range sum.Tables {
			ent.depTables[name] = db.eng.Cat.Table(name)
			ent.depViews[name] = db.eng.Cat.View(name)
		}
	}
}

// depsValid reports whether every name in the entry's dependency set
// still resolves to the same catalog object it did at pin time.
func (db *DB) depsValid(ent *translationEntry) bool {
	if len(ent.depSummaries()) == 0 {
		return false
	}
	for name, ptr := range ent.depRoutines {
		if db.eng.Cat.Routine(name) != ptr {
			return false
		}
	}
	for name, ptr := range ent.depTables {
		if db.eng.Cat.Table(name) != ptr || db.eng.Cat.View(name) != ent.depViews[name] {
			return false
		}
	}
	return true
}

// lookupTranslation returns a valid cached entry for key, or nil. The
// whole validation runs under db.mu because runTranslation rewrites an
// entry's catVersion/registered after first execution. On a persistent
// catalog-version mismatch the entry is revalidated against its
// dependency set and re-pinned when only unrelated DDL ran; cached
// verdicts derived from the summary (parallelSafe) stay sound because
// everything they depend on is in that set.
func (db *DB) lookupTranslation(key string) *translationEntry {
	if key == "" {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	ent := db.tcache[key]
	if ent == nil || !db.stampsValid(ent.stamps) {
		return nil
	}
	if catV := db.eng.Cat.PersistentVersion(); ent.catVersion != catV {
		if !db.depsValid(ent) {
			return nil
		}
		ent.catVersion = catV
	}
	return ent
}

func (db *DB) storeTranslation(key string, ent *translationEntry) {
	if key == "" {
		return
	}
	db.mu.Lock()
	if len(db.tcache) >= translationCacheCap {
		db.tcache = map[string]*translationEntry{}
	}
	db.tcache[key] = ent
	db.mu.Unlock()
}

// cpEntry caches the constant-period relation of one (context, table
// set) pair. The table is shared read-only by later executions and by
// parallel workers (chunk tables alias its row slice).
type cpEntry struct {
	stamps []tableStamp
	tab    *storage.Table
}

func cpKey(ctx temporal.Period, tables []string, dim sqlast.TemporalDimension) string {
	return fmt.Sprintf("%d|%d|%d|%s", dim, ctx.Begin, ctx.End, strings.Join(tables, ","))
}

// newCPTable materializes constant periods as a taupsm_cp-shaped table
// (not placed in the catalog — executions bind it as a table variable).
func newCPTable(periods []temporal.Period) *storage.Table {
	tab := storage.NewTable("taupsm_cp", storage.NewSchema([]storage.Column{
		{Name: "begin_time", Type: sqlast.TypeName{Base: "DATE"}},
		{Name: "end_time", Type: sqlast.TypeName{Base: "DATE"}},
	}))
	tab.Temporary = true
	tab.Rows = make([][]types.Value, len(periods))
	for i, p := range periods {
		tab.Rows[i] = []types.Value{types.NewDate(p.Begin), types.NewDate(p.End)}
	}
	return tab
}

// constantPeriodTable returns the constant-period relation for the
// translation's context, from the cache when the underlying tables are
// unchanged, computing and caching it otherwise. A cache miss times
// the computation as the statement's cp stage and, when traced, emits
// a stratum.cp span under parent (the execute span).
func (db *DB) constantPeriodTable(st *stmtState, parent obs.SpanContext, t *core.Translation, ctx temporal.Period) *storage.Table {
	key := cpKey(ctx, t.TemporalTables, t.Dim)
	db.mu.Lock()
	ent := db.cpcache[key]
	db.mu.Unlock()
	if st != nil {
		st.cpProbed = true
	}
	if ent != nil && db.stampsValid(ent.stamps) {
		db.sm.cpHits.Inc()
		if st != nil {
			st.cpHit = true
		}
		return ent.tab
	}
	db.sm.cpMisses.Inc()
	// Stamps are taken before reading the rows so a racing write can
	// only make them too old (a spurious recomputation), never too new.
	start := time.Now()
	stamps := db.tableStamps(t.TemporalTables)
	periods := temporal.ConstantPeriods(db.collectTimePoints(t.TemporalTables, t.Dim), ctx)
	tab := newCPTable(periods)
	d := time.Since(start)
	if st != nil {
		st.cpDur = d
		if st.tr != nil {
			st.tr.Span(obs.Span{Name: "stratum.cp", Start: start, Dur: d,
				Trace: parent.Trace, ID: obs.NewSpanID(), Parent: parent.Span,
				Attrs: []obs.Attr{obs.AInt("periods", int64(len(periods)))}})
		}
	}
	db.mu.Lock()
	if len(db.cpcache) >= cpCacheCap {
		db.cpcache = map[string]*cpEntry{}
	}
	db.cpcache[key] = &cpEntry{stamps: stamps, tab: tab}
	db.mu.Unlock()
	return tab
}

// peekCP reports whether the constant-period cache holds a valid entry
// for key — EXPLAIN's read-only probe: no fill, no hit/miss counters.
func (db *DB) peekCP(key string) bool {
	db.mu.Lock()
	ent := db.cpcache[key]
	db.mu.Unlock()
	return ent != nil && db.stampsValid(ent.stamps)
}

// cachedParse returns the parsed statements for src, keeping a bounded
// cache of parse results. Reusing the same AST pointers across
// executions is what lets the engine's plan cache (keyed by node
// identity) hit on repeated Query(src) calls; the ASTs are never
// mutated downstream (the translator clones before rewriting and the
// evaluator treats them as read-only).
func (db *DB) cachedParse(src string) ([]sqlast.Stmt, bool) {
	db.mu.Lock()
	stmts, ok := db.parseCache[src]
	db.mu.Unlock()
	return stmts, ok
}

func (db *DB) storeParse(src string, stmts []sqlast.Stmt) {
	db.mu.Lock()
	if len(db.parseCache) >= parseCacheCap {
		db.parseCache = map[string][]sqlast.Stmt{}
	}
	db.parseCache[src] = stmts
	db.mu.Unlock()
}
