package engine

import (
	"fmt"
	"strings"
	"sync"

	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// selPlan is the cached, immutable analysis of one SELECT: source
// metadata, the site that evaluates each conjunct of its WHERE clause,
// and every conjunct, join key and select item bound against its
// site's row layout (bind.go). All of it is a pure function of the
// statement and the schema, yet the tree-walking evaluator used to
// redo it on every evaluation — under MAX slicing a routine-body
// SELECT is re-analyzed once per (tuple, constant period) pair, and
// every column was found by name once per row.
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
	srcMetas [][]entryMeta
	// steps[i] says where the WHERE conjuncts evaluated with FROM item
	// i run and holds their forms bound against that site's layout;
	// residual holds the rest, bound against the metas of every FROM
	// item and ordered by cost.
	steps    []selStep
	residual filter
	// aggs are the aggregate calls of the select list, HAVING and ORDER
	// BY; grouped plans evaluate through evalGrouped, all others through
	// proj.
	aggs    []*sqlast.FuncCall
	grouped bool
	proj    *projPlan
	// varTables maps each lower FROM name to the column names of the
	// table-valued variable it resolved to, or to nil when it resolved
	// through the catalog (and must not be shadowed by a variable).
	varTables map[string][]string
	pin       *storage.Pin
}

// selStep is the plan of one FROM item. A lateral table function —
// one that must run once per accumulated row (see correlatedCall) —
// has as conds the conjuncts applicable once its columns join the
// accumulated row (bound against that combined layout); otherwise
// conds are the item's scan pushdown (bound against its own metas) and
// join, for every item but the first, joins it to the items before.
type selStep struct {
	tf      *tfCall // table-function items only
	lateral bool
	conds   filter
	join    *joinPlan
}

// tfCall is a FROM-clause table function call resolved and bound
// once: its routine (nil when none exists: the call reports it) and
// its arguments, bound against the layout of the items before it when
// lateral, else against no local layout.
type tfCall struct {
	tf   *sqlast.TableFunc
	r    *storage.Routine
	args []boundExpr
}

// projPlan is the bound select list of a plain (ungrouped) SELECT:
// items[i] evaluates select item i (nil for * and t.*), order the
// ORDER BY keys.
type projPlan struct {
	items []boundExpr
	order []orderKey
	nvals int // output columns per row
}

// orderKey is one bound ORDER BY key: an output column (slot >= 0, by
// ordinal or select alias), an expression over the row, or an ordinal
// out of range (err, raised per row as the interpreter does).
type orderKey struct {
	slot int
	eval boundExpr
	err  error
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
			tv = ctx.vars.getTableKey(name)
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
// for every FROM entry, conjunct decomposition of WHERE, the choice of
// the site that evaluates each conjunct, and binding of every
// conjunct, join key and select item against its site's layout. A
// name that is an error at its site fails the build, whatever the
// data.
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
	p := &selPlan{
		srcMetas:  srcMetas,
		steps:     make([]selStep, len(sel.From)),
		varTables: rec.varTables,
		pin:       rec.pin,
	}
	conjuncts := db.splitConjuncts(sel.Where, allMetas)
	used := make(map[*conjunct]bool)
	take := func(ok func(*conjunct) bool) []*conjunct {
		var out []*conjunct
		for _, c := range conjuncts {
			if !used[c] && ok(c) {
				out = append(out, c)
				used[c] = true
			}
		}
		return out
	}
	var prior []entryMeta
	for i, fr := range sel.From {
		ms := srcMetas[i]
		combined := append(append([]entryMeta{}, prior...), ms...)
		st := &p.steps[i]
		if tf, ok := fr.(*sqlast.TableFunc); ok {
			var argLayout []entryMeta
			if correlated[i] {
				argLayout = prior
			}
			b := &binder{db: db, layout: argLayout, pin: rec.pin}
			st.tf = b.bindTableFunc(tf)
			if b.err != nil {
				return nil, b.err
			}
			if correlated[i] {
				st.lateral = true
				applicable := take(func(c *conjunct) bool { return c.subsetOf(combined) && !c.hasSub })
				db.orderByCost(applicable)
				cb := &binder{db: db, layout: combined, pin: rec.pin}
				st.conds = cb.bindFilter(applicable)
				if cb.err != nil {
					return nil, cb.err
				}
				prior = combined
				continue
			}
		}
		// Pushdown: conjuncts referencing only this source.
		pb := &binder{db: db, layout: ms, pin: rec.pin}
		st.conds = pb.bindFilter(take(func(c *conjunct) bool {
			return c.subsetOf(ms) && !c.hasSub && len(c.aliases) > 0
		}))
		if pb.err != nil {
			return nil, pb.err
		}
		if len(prior) > 0 {
			// Join conjuncts applicable once this source is added.
			jc := take(func(c *conjunct) bool { return c.subsetOf(combined) && !c.hasSub })
			jp, err := db.planJoin(rec.pin, prior, ms, jc)
			if err != nil {
				return nil, err
			}
			st.join = jp
		}
		prior = combined
	}

	// Residual filter. Cheap predicates run before stored-routine
	// invocations so an overlap or comparison can short-circuit an
	// expensive call (simple selectivity ordering).
	residual := take(func(*conjunct) bool { return true })
	db.orderByCost(residual)
	rb := &binder{db: db, layout: allMetas, pin: rec.pin}
	p.residual = rb.bindFilter(residual)
	if rb.err != nil {
		return nil, rb.err
	}

	p.aggs = collectAggregates(sel)
	p.grouped = len(sel.GroupBy) > 0 || len(p.aggs) > 0
	if !p.grouped {
		proj, err := db.planProject(rec.pin, sel, allMetas)
		if err != nil {
			return nil, err
		}
		p.proj = proj
	}
	return p, nil
}

// planProject binds the select list and ORDER BY keys of an ungrouped
// SELECT against the layout of its joined rows.
func (db *DB) planProject(pin *storage.Pin, sel *sqlast.SelectStmt, layout []entryMeta) (*projPlan, error) {
	b := &binder{db: db, layout: layout, pin: pin}
	pp := &projPlan{items: make([]boundExpr, len(sel.Items))}
	// pos[i] is the output column of select item i's first value.
	pos := make([]int, len(sel.Items))
	nvals := 0
	for i, it := range sel.Items {
		pos[i] = nvals
		switch {
		case it.Star:
			for _, m := range layout {
				nvals += len(m.cols)
			}
		case it.TableStar != "":
			for _, m := range layout {
				if strings.EqualFold(m.alias, it.TableStar) {
					nvals += len(m.cols)
				}
			}
		default:
			pp.items[i] = b.bind(it.Expr)
			nvals++
		}
	}
	for _, o := range sel.OrderBy {
		pp.order = append(pp.order, orderKeyFor(b, sel, o.Expr, pos, nvals))
	}
	if b.err != nil {
		return nil, b.err
	}
	pp.nvals = nvals
	return pp, nil
}

// orderKeyFor resolves one ORDER BY expression the way orderKeys does
// per row: an integer ordinal, then an unqualified select-list alias
// (the output column of that item, counting the columns * and t.*
// items before it expand to), then an expression over the row.
func orderKeyFor(b *binder, sel *sqlast.SelectStmt, e sqlast.Expr, pos []int, nvals int) orderKey {
	if lit, ok := e.(*sqlast.Literal); ok && lit.Val.Kind == types.KindInt {
		n := int(lit.Val.I)
		if n >= 1 && n <= nvals {
			return orderKey{slot: n - 1}
		}
		return orderKey{slot: -1, err: fmt.Errorf("ORDER BY ordinal %d out of range", n)}
	}
	if cr, ok := e.(*sqlast.ColumnRef); ok && cr.Table == "" {
		for j, it := range sel.Items {
			if it.Alias != "" && strings.EqualFold(it.Alias, cr.Column) {
				return orderKey{slot: pos[j]}
			}
		}
	}
	return orderKey{slot: -1, eval: b.bind(e)}
}
