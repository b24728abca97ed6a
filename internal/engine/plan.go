package engine

import (
	"sync"
	"sync/atomic"

	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
)

// selPlan is the cached, immutable analysis of one SELECT: source
// metadata and the conjunct decomposition of its WHERE clause. Those
// two phases are pure functions of the statement and the schema, yet
// the tree-walking evaluator used to redo them on every evaluation —
// under MAX slicing a routine-body SELECT is re-analyzed once per
// (tuple, constant period) pair, which profiling showed to be a
// double-digit share of sequenced execution time.
//
// A plan is valid while every name resolves the same way it did at
// build time: names that resolved to table-valued variables still do
// (with the same column list), names that resolved to catalog objects
// are not shadowed by a variable now, and names that resolved to
// catalog tables still reach a table with the same column list. The
// persistent catalog version serves as a fast path: while it matches,
// the recorded resolutions of durable objects cannot have changed.
// When it differs, the plan is not discarded outright — its inferred
// read set (the recorded resolutions) is revalidated name by name, and
// on success the plan re-pins to the new version. Unrelated DDL (a
// table or routine this statement never touches) therefore leaves warm
// plans warm. Plans are shared by concurrent evaluation sessions, so
// everything reachable from one is read-only except the atomic
// version pin.
type selPlan struct {
	catVersion atomic.Int64 // Catalog.PersistentVersion last validated at
	srcMetas   [][]entryMeta
	allMetas   []entryMeta
	conjuncts  []*conjunct
	// correlated[i] marks a FROM-clause table function that must run
	// once per accumulated row (see correlatedCall); every other FROM
	// item, table functions included, is loaded once.
	correlated []bool
	varTables  map[string][]string    // lower var name -> column names at build
	catTables  map[string]catResolved // lower name -> catalog resolution at build
}

// catResolved pins how a FROM name resolved through the catalog when
// the plan was built: to a table (with its column list), to a view
// (by identity), or to a system table (neither).
type catResolved struct {
	table bool
	cols  []string
	view  *storage.View // non-nil when the name resolved to a view
}

// planRecorder collects, during plan building, how each base-table
// name was resolved, for revalidation on reuse.
type planRecorder struct {
	varTables map[string][]string
	catTables map[string]catResolved
}

// planCache maps SELECT nodes (by identity) to their plans for the
// lifetime of one owner: the Prepared of a cached translation (shared
// by its worker sessions and by every execution of the statement), or
// else the single top-level statement being executed. A plan therefore
// lives only as long as the statement that owns it; nothing global
// keeps one-shot ASTs alive. Entries are never deleted individually —
// staleness is detected by selPlan validation.
type planCache struct {
	m sync.Map // *sqlast.SelectStmt -> *selPlan
}

func (pc *planCache) get(sel *sqlast.SelectStmt) *selPlan {
	if v, ok := pc.m.Load(sel); ok {
		return v.(*selPlan)
	}
	return nil
}

func (pc *planCache) put(sel *sqlast.SelectStmt, p *selPlan) { pc.m.Store(sel, p) }

// valid reports whether the plan's name resolution still holds in ctx.
// On a persistent-version mismatch the recorded resolutions are
// revalidated individually; if they all hold, the plan re-pins to the
// current version instead of rebuilding. The version is read before
// the checks, so a racing DDL can only leave the pin too old (a
// spurious revalidation next time), never too new.
func (p *selPlan) valid(db *DB, ctx *execCtx) bool {
	catV := db.Cat.PersistentVersion()
	repin := p.catVersion.Load() != catV
	for name, cols := range p.varTables {
		if ctx.vars == nil {
			return false
		}
		tv := ctx.vars.getTable(name)
		if tv == nil {
			return false
		}
		if !sameCols(tv.Schema.Names(), cols) {
			return false
		}
	}
	for name, res := range p.catTables {
		if ctx.vars != nil && ctx.vars.getTable(name) != nil {
			return false // now shadowed by a table variable
		}
		t := db.Cat.Table(name)
		if !res.table {
			// Resolved past the table map (to a view or system table):
			// any table carrying the name now — e.g. a freshly created
			// temp table — would shadow that resolution.
			if t != nil {
				return false
			}
			if repin {
				// A view's output columns can depend on other objects
				// (star expansion), which identity alone doesn't pin:
				// rebuild views on any schema change. System tables
				// (view == nil) have code-defined schemas; just confirm
				// no view took the name.
				if res.view != nil || db.Cat.View(name) != nil {
					return false
				}
			}
			continue
		}
		// Column identity is the real validity condition; the persistent
		// version only fast-paths it. This covers temporary tables on
		// the fast path and every table under revalidation.
		if t == nil || !sameCols(t.Schema.Names(), res.cols) {
			return false
		}
	}
	if repin {
		p.catVersion.Store(catV)
	}
	return true
}

func sameCols(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// selPlanFor returns the plan for sel, building (and caching it in the
// statement's plan cache, when there is one) when missing or stale.
func (db *DB) selPlanFor(ctx *execCtx, sel *sqlast.SelectStmt) (*selPlan, error) {
	if ctx.plans != nil {
		if p := ctx.plans.get(sel); p != nil && p.valid(db, ctx) {
			return p, nil
		}
	}
	p, err := db.buildSelPlan(ctx, sel)
	if err != nil {
		return nil, err
	}
	if ctx.plans != nil {
		ctx.plans.put(sel, p)
	}
	return p, nil
}

// buildSelPlan runs the analysis phases of evalSelect: source metas
// for every FROM entry, then conjunct decomposition of WHERE.
func (db *DB) buildSelPlan(ctx *execCtx, sel *sqlast.SelectStmt) (*selPlan, error) {
	// Read the schema version before resolving, so a racing DDL can
	// only make the stamp too old (a spurious rebuild), never too new.
	catVersion := db.Cat.PersistentVersion()
	rec := &planRecorder{
		varTables: map[string][]string{},
		catTables: map[string]catResolved{},
	}
	rctx := *ctx
	rctx.planRec = rec

	var allMetas []entryMeta
	srcMetas := make([][]entryMeta, len(sel.From))
	correlated := make([]bool, len(sel.From))
	for i, fr := range sel.From {
		ms, err := db.sourceMetas(&rctx, fr)
		if err != nil {
			return nil, err
		}
		srcMetas[i] = ms
		if tf, ok := fr.(*sqlast.TableFunc); ok {
			correlated[i] = db.correlatedCall(tf, allMetas)
		}
		allMetas = append(allMetas, ms...)
	}
	conjuncts := db.splitConjuncts(sel.Where, allMetas)
	p := &selPlan{
		srcMetas:   srcMetas,
		allMetas:   allMetas,
		conjuncts:  conjuncts,
		correlated: correlated,
		varTables:  rec.varTables,
		catTables:  rec.catTables,
	}
	p.catVersion.Store(catVersion)
	return p, nil
}
