package engine

import (
	"sync"

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
// A plan is valid while every FROM name resolves the way it did at
// build time: names that resolved to table-valued variables still do,
// with the same column list (varTables), names that resolved through
// the catalog are not shadowed by a variable now, and the catalog
// resolutions themselves hold at shape strength (pin): a table with
// the same column list, the same view, or still neither. Shape rather
// than identity keeps plans warm across the scratch temporary tables
// generated MAX/PERST code recreates around every statement. A view
// whose columns are inferred (star expansion) pins the names its body
// resolves too, so altering a base table rebuilds plans over the view.
// Plans are shared by concurrent evaluation sessions; everything
// reachable from one is read-only except the pin's atomic version.
type selPlan struct {
	srcMetas  [][]entryMeta
	allMetas  []entryMeta
	conjuncts []*conjunct
	// correlated[i] marks a FROM-clause table function that must run
	// once per accumulated row (see correlatedCall); every other FROM
	// item, table functions included, is loaded once.
	correlated []bool
	// varTables maps each lower FROM name to the column names of the
	// table-valued variable it resolved to, or to nil when it resolved
	// through the catalog (and must not be shadowed by a variable).
	varTables map[string][]string
	pin       *storage.Pin
}

// planRecorder collects, during plan building, how each base-table
// name was resolved, for revalidation on reuse.
type planRecorder struct {
	varTables map[string][]string
	pin       *storage.Pin
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
func (p *selPlan) valid(db *DB, ctx *execCtx) bool {
	for name, cols := range p.varTables {
		var tv *storage.Table
		if ctx.vars != nil {
			tv = ctx.vars.getTable(name)
		}
		if tv == nil {
			if cols != nil {
				return false
			}
			continue
		}
		if cols == nil || !tv.Schema.NamesEqual(cols) {
			return false
		}
	}
	return p.pin.Valid(db.Cat)
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
	rec := &planRecorder{varTables: map[string][]string{}, pin: storage.NewPin(db.Cat)}
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
	return &selPlan{
		srcMetas:   srcMetas,
		allMetas:   allMetas,
		conjuncts:  conjuncts,
		correlated: correlated,
		varTables:  rec.varTables,
		pin:        rec.pin,
	}, nil
}
