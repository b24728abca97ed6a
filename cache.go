package taupsm

import (
	"fmt"
	"hash/maphash"
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

// The stratum keeps two caches on the read path: translations of
// sequenced statements, keyed by rendered text and strategy, and
// constant-period relations, keyed by context and table set. Neither is
// ever invalidated by DDL or DML hooks; each entry carries a
// storage.Pin — how the names it depends on resolved when it was built
// — and is served only while the pin still holds. The engine's SELECT
// plans, prepared source relations and routine effect verdicts are
// validated by the same pin type, so one rule answers "does this name
// still resolve to what it did when I cached?" everywhere. The caps
// below only bound memory when many one-shot statements flow through:
// a cache over its cap is wiped wholesale.
const (
	translationCacheCap = 256
	cpCacheCap          = 1024
	admissionCap        = 4096
)

// admission decides which statement texts the translation cache keeps:
// a text is admitted on its second execution. Until then only its
// 64-bit hash is remembered, in a set wiped wholesale at admissionCap,
// so a stream of one-shot statements (every text of a history scan is
// new) leaves no translations pinned in the cache. A hash collision
// merely admits a text one execution early.
type admission struct {
	seed maphash.Seed
	seen map[uint64]struct{}
}

func newAdmission() admission {
	return admission{seed: maphash.MakeSeed(), seen: map[uint64]struct{}{}}
}

// admit reports whether key was offered before, remembering it
// otherwise.
func (db *DB) admit(key string) bool {
	if key == "" {
		return false
	}
	a := &db.transSeen
	h := maphash.String(a.seed, key)
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := a.seen[h]; ok {
		return true
	}
	if len(a.seen) >= admissionCap {
		a.seen = map[uint64]struct{}{}
	}
	a.seen[h] = struct{}{}
	return false
}

// translationEntry caches one statement's translation. It is valid
// while pin holds (see storage.Pin): every routine and relation name
// the statement's effect summaries consulted still resolves to the same
// catalog object, and every referenced temporal table still holds the
// same data (the Auto heuristic reads row counts, so DML can change the
// chosen strategy). Unrelated DDL merely re-pins the entry, while
// temporary-table churn under a consulted name invalidates it.
type translationEntry struct {
	t   *core.Translation
	pin *storage.Pin
	// summary is the interprocedural effect summary of the translated
	// main statement; it feeds EXPLAIN's read/write-set rows and names
	// part of the pinned dependency set.
	summary *check.Summary
	// origSummary summarizes the pre-translation statement. The
	// translation embeds clones of the routines the statement calls
	// (MAX renames them max_<name>), so the translated main no longer
	// references the originals — but redefining an original must still
	// invalidate the entry. Its dependency names join the pin too.
	origSummary *check.Summary
	// registered marks that t.Routines have been installed in the
	// catalog; later executions of this entry skip re-registration
	// (the pin covers the clone names, so they are still there).
	registered bool
	// parallelSafe caches the statement-shape analysis gating parallel
	// fragment evaluation.
	parallelSafe bool
	// prepared is the entry's shared prepared plan: source relations
	// and join hash tables built by one execution and reused — under
	// their own pins — by every later execution and by parallel
	// workers. Created lazily under db.mu; dropped with the entry (cache
	// wipe or invalidation), which is the only eviction the plan itself
	// needs.
	prepared *engine.Prepared
}

// renderStmtSQL renders a statement back to SQL text, the translation
// cache's key ("" when the node cannot render itself). Text keys — not
// AST pointers — let EXPLAIN probe for would-hit with its separately
// parsed body, and make repeated Query(src) calls hit although each
// call parses afresh.
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

// pinTranslation pins the entry's dependency set against the live
// catalog: the routine and relation names of both summaries by
// identity, the temporal tables by data. Called at fill time and again
// after routine registration (which installs the translation's clones,
// changing what their names resolve to). Caller holds db.mu when the
// entry is shared.
func (db *DB) pinTranslation(ent *translationEntry) {
	cat := db.eng.Cat
	pin := storage.NewPin(cat)
	for _, sum := range []*check.Summary{ent.summary, ent.origSummary} {
		for name := range sum.Routines {
			pin.Routine(cat, name)
		}
		for name := range sum.Tables {
			pin.Relation(cat, name, storage.PinIdentity)
		}
	}
	for _, name := range ent.t.TemporalTables {
		pin.Relation(cat, name, storage.PinData)
	}
	ent.pin = pin
}

// lookupTranslation returns a valid cached entry for key, or nil. The
// validation runs under db.mu because runTranslation re-pins an entry
// after its first execution. Cached verdicts derived from the summary
// (parallelSafe) stay sound because everything they depend on is
// pinned.
func (db *DB) lookupTranslation(key string) *translationEntry {
	if key == "" {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	ent := db.tcache[key]
	if ent == nil || !ent.pin.Valid(db.eng.Cat) {
		return nil
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
	pin *storage.Pin // data-strength pins of the temporal tables
	tab *storage.Table
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
	if ent != nil && ent.pin.Valid(db.eng.Cat) {
		db.sm.cpHits.Inc()
		if st != nil {
			st.cpHit = true
		}
		return ent.tab
	}
	db.sm.cpMisses.Inc()
	// The pin is taken before reading the rows so a racing write can
	// only make it too old (a spurious recomputation), never too new.
	start := time.Now()
	pin := storage.NewPin(db.eng.Cat)
	for _, name := range t.TemporalTables {
		pin.Relation(db.eng.Cat, name, storage.PinData)
	}
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
	db.cpcache[key] = &cpEntry{pin: pin, tab: tab}
	db.mu.Unlock()
	return tab
}

// peekCP reports whether the constant-period cache holds a valid entry
// for key — EXPLAIN's read-only probe: no fill, no hit/miss counters.
func (db *DB) peekCP(key string) bool {
	db.mu.Lock()
	ent := db.cpcache[key]
	db.mu.Unlock()
	return ent != nil && ent.pin.Valid(db.eng.Cat)
}
