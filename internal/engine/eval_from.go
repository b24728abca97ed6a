package engine

import (
	"fmt"
	"strings"

	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// entryMeta describes one correlation name contributed by a FROM
// source: its alias and column names.
type entryMeta struct {
	alias string
	cols  []string
}

// rel is an intermediate relation: a list of correlation entries and
// rows, where each row holds one value slice per entry.
type rel struct {
	metas []entryMeta
	rows  [][][]types.Value
	// For a single-source scan of a stored table, tab is that table and
	// ords[i] is rows[i]'s ordinal in tab.Rows (ascending). joinRels
	// uses them to probe tab's interval index per outer row.
	tab  *storage.Table
	ords []int
	// prepEnt is set when this relation was served from a Prepared
	// cache; joinRels uses it to share hash tables across the
	// executions of a fragment batch.
	prepEnt *prepRel
}

// bindScope builds a rowScope over metas bound to row, chained to
// parent. Bound evaluation (bind.go) reads rows by position and builds
// one only for a node that needs the row as a name scope.
func bindScope(parent *rowScope, metas []entryMeta, row [][]types.Value) *rowScope {
	return &rowScope{parent: parent, metas: metas, row: row}
}

// newBoundScope builds a rowScope over metas with no row bound yet;
// bind points it at successive rows. The interpretive loops that still
// resolve names per row — evalGrouped and the UPDATE/DELETE scans —
// reuse one scope across a loop (safe because nothing retains a scope
// past the evaluation: routine calls start fresh frames without the
// scope chain, and subqueries are evaluated eagerly).
func newBoundScope(parent *rowScope, metas []entryMeta) *rowScope {
	return &rowScope{parent: parent, metas: metas}
}

func (s *rowScope) bind(row [][]types.Value) { s.row = row }

// sourceMetas computes the correlation entries a table reference will
// contribute, without loading data.
func (db *DB) sourceMetas(ctx *execCtx, ref sqlast.TableRef) ([]entryMeta, error) {
	switch r := ref.(type) {
	case *sqlast.BaseTable:
		alias := r.Alias
		if alias == "" {
			alias = r.Name
		}
		if ctx.vars != nil {
			if tv := ctx.vars.getTable(r.Name); tv != nil {
				cols := tv.Schema.Names()
				if ctx.planRec != nil {
					ctx.planRec.varTables[strings.ToLower(r.Name)] = cols
				}
				return []entryMeta{{alias: alias, cols: cols}}, nil
			}
		}
		if ctx.planRec != nil {
			name := strings.ToLower(r.Name)
			ctx.planRec.varTables[name] = nil
			ctx.planRec.pin.Relation(db.Cat, name, storage.PinShape)
		}
		if t := db.Cat.Table(r.Name); t != nil {
			return []entryMeta{{alias: alias, cols: t.Schema.Names()}}, nil
		}
		if v := db.Cat.View(r.Name); v != nil {
			cols := v.Cols
			if len(cols) == 0 {
				var err error
				cols, err = db.inferQueryCols(ctx, v.Query)
				if err != nil {
					return nil, err
				}
			}
			return []entryMeta{{alias: alias, cols: cols}}, nil
		}
		if st := db.systemTable(r.Name); st != nil {
			return []entryMeta{{alias: alias, cols: st.Schema.Names()}}, nil
		}
		return nil, fmt.Errorf("table or view %s does not exist", r.Name)
	case *sqlast.DerivedTable:
		cols := r.Cols
		if len(cols) == 0 {
			var err error
			cols, err = db.inferQueryCols(ctx, r.Query)
			if err != nil {
				return nil, err
			}
		}
		return []entryMeta{{alias: r.Alias, cols: cols}}, nil
	case *sqlast.TableFunc:
		cols := r.Cols
		if len(cols) == 0 {
			rt := db.Cat.Routine(r.Call.Name)
			if rt == nil || rt.Kind != storage.KindFunction {
				return nil, fmt.Errorf("table function %s does not exist", r.Call.Name)
			}
			if !rt.Fn.Returns.IsCollection() {
				return nil, fmt.Errorf("function %s does not return a collection type", r.Call.Name)
			}
			for _, f := range rt.Fn.Returns.Row {
				cols = append(cols, f.Name)
			}
		}
		return []entryMeta{{alias: r.Alias, cols: cols}}, nil
	case *sqlast.JoinExpr:
		lm, err := db.sourceMetas(ctx, r.L)
		if err != nil {
			return nil, err
		}
		rm, err := db.sourceMetas(ctx, r.R)
		if err != nil {
			return nil, err
		}
		return append(lm, rm...), nil
	}
	return nil, fmt.Errorf("engine: unsupported table reference %T", ref)
}

// inferQueryCols derives the output column names of a query without
// evaluating it.
func (db *DB) inferQueryCols(ctx *execCtx, q sqlast.QueryExpr) ([]string, error) {
	switch x := q.(type) {
	case *sqlast.SelectStmt:
		var metas []entryMeta
		for _, fr := range x.From {
			ms, err := db.sourceMetas(ctx, fr)
			if err != nil {
				return nil, err
			}
			metas = append(metas, ms...)
		}
		var out []string
		for i, it := range x.Items {
			switch {
			case it.Star:
				for _, m := range metas {
					out = append(out, m.cols...)
				}
			case it.TableStar != "":
				found := false
				for _, m := range metas {
					if strings.EqualFold(m.alias, it.TableStar) {
						out = append(out, m.cols...)
						found = true
					}
				}
				if !found {
					return nil, fmt.Errorf("unknown correlation name %s.*", it.TableStar)
				}
			case it.Alias != "":
				out = append(out, it.Alias)
			default:
				if cr, ok := it.Expr.(*sqlast.ColumnRef); ok {
					out = append(out, cr.Column)
				} else {
					out = append(out, fmt.Sprintf("col%d", i+1))
				}
			}
		}
		return out, nil
	case *sqlast.SetOpExpr:
		return db.inferQueryCols(ctx, x.L)
	case *sqlast.ValuesExpr:
		if len(x.Rows) == 0 {
			return nil, nil
		}
		out := make([]string, len(x.Rows[0]))
		for i := range out {
			out[i] = fmt.Sprintf("col%d", i+1)
		}
		return out, nil
	}
	return nil, fmt.Errorf("engine: unsupported query %T", q)
}

// loadSource materializes a non-lateral table reference as a relation,
// applying pushdown filters (conjuncts referencing only this source's
// aliases). It uses a hash-index lookup when an equality conjunct
// compares a column with an expression that is constant w.r.t. this
// query level. A table function is called once and its collection
// scanned like a stored table.
//
// push is bound against metas. call is the plan's bound form of a
// table-function ref (nil: bind it now, as inside a JOIN tree).
func (db *DB) loadSource(ctx *execCtx, ref sqlast.TableRef, metas []entryMeta, push filter, call *tfCall) (*rel, error) {
	switch r := ref.(type) {
	case *sqlast.BaseTable:
		t := db.resolveTable(ctx, r.Name)
		if t != nil {
			return db.scanTable(ctx, t, metas[0], push)
		}
		if v := db.Cat.View(r.Name); v != nil {
			if ctx.depth > db.MaxRecursion {
				return nil, fmt.Errorf("view nesting too deep at %s", r.Name)
			}
			sub := *ctx
			sub.depth++
			res, err := db.evalQuery(&sub, v.Query)
			if err != nil {
				return nil, err
			}
			return db.resultToRel(ctx, res, metas[0], push)
		}
		if st := db.systemTable(r.Name); st != nil {
			return db.scanTable(ctx, st, metas[0], push)
		}
		return nil, fmt.Errorf("table or view %s does not exist", r.Name)
	case *sqlast.DerivedTable:
		res, err := db.evalQuery(ctx, r.Query)
		if err != nil {
			return nil, err
		}
		return db.resultToRel(ctx, res, metas[0], push)
	case *sqlast.TableFunc:
		if call == nil {
			call = (&binder{db: db}).bindTableFunc(r)
		}
		t, err := db.tableFunc(ctx, call, nil, metas[0])
		if err != nil {
			return nil, err
		}
		if t == nil {
			return &rel{metas: metas}, nil
		}
		return db.scanTable(ctx, t, metas[0], push)
	case *sqlast.JoinExpr:
		return db.evalJoinRef(ctx, r, push)
	}
	return nil, fmt.Errorf("engine: unsupported table reference %T", ref)
}

// resolveTable finds a stored table or table-valued variable.
func (db *DB) resolveTable(ctx *execCtx, name string) *storage.Table {
	if ctx.vars != nil {
		if tv := ctx.vars.getTable(name); tv != nil {
			return tv
		}
	}
	return db.Cat.Table(name)
}

// scanTable filters a stored table (or a table-valued variable or
// function result) by pushdown conjuncts, preferring a hash-index path
// for an equality on a column. meta.cols name t's columns by position;
// a table function's column aliases may rename them.
func (db *DB) scanTable(ctx *execCtx, t *storage.Table, meta entryMeta, push filter) (*rel, error) {
	out := &rel{metas: []entryMeta{meta}, tab: t}
	pushdown := push.conj

	// Index path: find conjunct of form <col> = <constant-here expr>.
	var candidates []int
	usedIdx := -1
	for ci, c := range pushdown {
		if db.DisableIndexes {
			break
		}
		col, valExpr := c.indexable(meta.alias, meta.cols)
		if col == "" {
			continue
		}
		ord := -1
		for i, mc := range meta.cols {
			if strings.EqualFold(mc, col) {
				ord = i
				break
			}
		}
		if ord < 0 {
			continue
		}
		v, err := db.evalExpr(ctx, valExpr)
		if err != nil {
			// Not actually constant here (references this row); skip.
			continue
		}
		if v.IsNull() {
			// col = NULL is never true: the scan yields no rows.
			candidates = nil
		} else {
			candidates = t.Lookup(ord, v)
		}
		usedIdx = ci
		break
	}

	one := make([][]types.Value, 1)
	check := func(row []types.Value) (bool, error) {
		one[0] = row
		return push.pass(ctx, one, usedIdx)
	}

	scanOrds := func(ords []int) error {
		db.Stats.RowsScanned += int64(len(ords))
		db.Proc.AddRowsScanned(int64(len(ords)))
		if err := db.Proc.Killed(); err != nil {
			return err
		}
		for _, i := range ords {
			ok, err := check(t.Rows[i])
			if err != nil {
				return err
			}
			if ok {
				out.rows = append(out.rows, [][]types.Value{t.Rows[i]})
				out.ords = append(out.ords, i)
			}
		}
		return nil
	}

	if usedIdx >= 0 {
		if err := scanOrds(candidates); err != nil {
			return nil, err
		}
		return out, nil
	}

	// Interval-index path: the point-overlap pair MAX slicing injects
	// (t.begin_time <= X AND X < t.end_time, X constant w.r.t. this
	// scan — typically a routine parameter or outer-query column) is a
	// stab query the temporal overlap index answers in O(log n + k).
	// Every pushdown conjunct, including the pair itself, is still
	// evaluated on the candidates, so rows with non-date endpoints keep
	// exact SQL semantics.
	if !db.DisableIndexes {
		if x := findStab(pushdown, t, meta.alias); x != nil {
			if v, err := db.evalExpr(ctx, x); err == nil &&
				(v.Kind == types.KindDate || v.Kind == types.KindInt) {
				if cands, ok := t.Overlapping(v.I, v.I); ok {
					db.Stats.IntervalProbes++
					if err := scanOrds(cands); err != nil {
						return nil, err
					}
					return out, nil
				}
			}
		}
	}

	db.Stats.RowsScanned += int64(len(t.Rows))
	db.Proc.AddRowsScanned(int64(len(t.Rows)))
	if err := db.Proc.Killed(); err != nil {
		return nil, err
	}
	for i, row := range t.Rows {
		ok, err := check(row)
		if err != nil {
			return nil, err
		}
		if ok {
			out.rows = append(out.rows, [][]types.Value{row})
			out.ords = append(out.ords, i)
		}
	}
	return out, nil
}

// findStab looks among the conjuncts for the injected point-overlap
// pair against the temporal table's period columns: begin <= X (or
// X >= begin) and X < end (or end > X), where both X's render to the
// same SQL and are free of the table's own columns. It returns that X
// expression, or nil when the pattern is absent.
func findStab(cs []*conjunct, t *storage.Table, alias string) sqlast.Expr {
	if !(t.ValidTime || t.TransactionTime) || len(t.Schema.Cols) < 2 {
		return nil
	}
	beginName := t.Schema.Cols[t.BeginCol()].Name
	endName := t.Schema.Cols[t.EndCol()].Name
	meta := []entryMeta{{alias: alias, cols: t.Schema.Names()}}

	isCol := func(e sqlast.Expr, name string) bool {
		cr, ok := e.(*sqlast.ColumnRef)
		if !ok || !strings.EqualFold(cr.Column, name) {
			return false
		}
		return cr.Table == "" || strings.EqualFold(cr.Table, alias)
	}
	freeOf := func(e sqlast.Expr) bool {
		al, _, hasSub, unres := refsOf(e, meta)
		return !hasSub && !unres && len(al) == 0
	}
	var beginXs, endXs []sqlast.Expr
	for _, c := range cs {
		if c.hasSub || c.unresolved {
			continue
		}
		b, ok := c.expr.(*sqlast.BinaryExpr)
		if !ok {
			continue
		}
		switch b.Op {
		case "<=":
			if isCol(b.L, beginName) && freeOf(b.R) {
				beginXs = append(beginXs, b.R)
			}
		case ">=":
			if isCol(b.R, beginName) && freeOf(b.L) {
				beginXs = append(beginXs, b.L)
			}
		case "<":
			if isCol(b.R, endName) && freeOf(b.L) {
				endXs = append(endXs, b.L)
			}
		case ">":
			if isCol(b.L, endName) && freeOf(b.R) {
				endXs = append(endXs, b.R)
			}
		}
	}
	for _, bx := range beginXs {
		bs := renderSQL(bx)
		if bs == "" {
			continue
		}
		for _, ex := range endXs {
			if renderSQL(ex) == bs {
				return bx
			}
		}
	}
	return nil
}

// renderSQL renders an expression back to SQL text for structural
// comparison; "" when the node cannot render itself.
func renderSQL(e sqlast.Expr) string {
	if s, ok := e.(interface{ SQL() string }); ok {
		return s.SQL()
	}
	return ""
}

// resultToRel wraps a materialized result as a relation, applying
// pushdown filters.
func (db *DB) resultToRel(ctx *execCtx, res *Result, meta entryMeta, push filter) (*rel, error) {
	if len(meta.cols) != len(res.Cols) && len(meta.cols) > 0 && len(res.Cols) > 0 {
		if len(meta.cols) != len(res.Cols) {
			return nil, fmt.Errorf("correlation %s declares %d columns but query produces %d",
				meta.alias, len(meta.cols), len(res.Cols))
		}
	}
	out := &rel{metas: []entryMeta{meta}}
	one := make([][]types.Value, 1)
	for _, row := range res.Rows {
		one[0] = row
		keep, err := push.pass(ctx, one, -1)
		if err != nil {
			return nil, err
		}
		if keep {
			out.rows = append(out.rows, [][]types.Value{row})
		}
	}
	return out, nil
}

// evalJoinRef evaluates an explicit JOIN ... ON tree. push is bound
// against the tree's combined metas; the conjuncts it routes to one
// side and the ON conjuncts are bound here, once per execution.
func (db *DB) evalJoinRef(ctx *execCtx, j *sqlast.JoinExpr, push filter) (*rel, error) {
	lm, err := db.sourceMetas(ctx, j.L)
	if err != nil {
		return nil, err
	}
	rm, err := db.sourceMetas(ctx, j.R)
	if err != nil {
		return nil, err
	}
	var lc, rc []*conjunct
	for _, c := range push.conj {
		switch {
		case c.subsetOf(lm):
			lc = append(lc, c)
		case c.subsetOf(rm) && j.Type == "INNER":
			rc = append(rc, c)
		}
	}
	lb, rb := &binder{db: db, layout: lm}, &binder{db: db, layout: rm}
	lpush, rpush := lb.bindFilter(lc), rb.bindFilter(rc)
	if err := firstErr(lb.err, rb.err); err != nil {
		return nil, err
	}
	// A table function inside a JOIN tree sees only the outer scope
	// (it is not lateral to the join's left side).
	left, err := db.loadSource(ctx, j.L, lm, lpush, nil)
	if err != nil {
		return nil, err
	}
	right, err := db.loadSource(ctx, j.R, rm, rpush, nil)
	if err != nil {
		return nil, err
	}
	onConj := db.splitConjuncts(j.On, append(append([]entryMeta{}, lm...), rm...))
	jp, err := db.planJoin(nil, lm, rm, onConj)
	if err != nil {
		return nil, err
	}
	combined, err := db.joinRels(ctx, left, right, jp, j.Type == "LEFT")
	if err != nil {
		return nil, err
	}
	// Residual pushdown: conjuncts spanning both sides (or, for LEFT,
	// the null side) filter the joined rows.
	rest := push.subset(func(c *conjunct) bool { return !contains(lc, c) && !contains(rc, c) })
	if len(rest.eval) > 0 {
		filtered := combined.rows[:0:0]
		for _, row := range combined.rows {
			keep, err := rest.pass(ctx, row, -1)
			if err != nil {
				return nil, err
			}
			if keep {
				filtered = append(filtered, row)
			}
		}
		combined.rows = filtered
	}
	return combined, nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func contains(cs []*conjunct, c *conjunct) bool {
	for _, x := range cs {
		if x == c {
			return true
		}
	}
	return false
}

// tableFunc invokes a FROM-clause table function and returns its
// collection, or nil for a NULL result; call.args are evaluated over
// row. This is a FROM call site: a write-free routine's result may be
// served from the statement memo (fnmemo.go), so callers read the
// collection and never mutate it.
func (db *DB) tableFunc(ctx *execCtx, call *tfCall, row [][]types.Value, meta entryMeta) (*storage.Table, error) {
	name := call.tf.Call.Name
	r := call.r
	if r == nil || r.Kind != storage.KindFunction {
		return nil, fmt.Errorf("table function %s does not exist", name)
	}
	v, err := db.callBound(ctx, r, call.args, row, true)
	if err != nil {
		return nil, err
	}
	if v.IsNull() {
		return nil, nil
	}
	if v.Kind != types.KindTable {
		return nil, fmt.Errorf("function %s used in FROM must return a collection", name)
	}
	t, ok := v.Aux.(*storage.Table)
	if !ok {
		return nil, fmt.Errorf("function %s returned an invalid collection", name)
	}
	if len(t.Schema.Cols) != len(meta.cols) {
		return nil, fmt.Errorf("function %s returned %d columns, expected %d",
			name, len(t.Schema.Cols), len(meta.cols))
	}
	return t, nil
}

// correlatedCall reports whether a FROM-clause table function must be
// called once per row accumulated from the earlier FROM items (prior):
// an argument references one of them, or contains a subquery or a
// stored-routine call. Any other table function is an ordinary source,
// loaded once.
func (db *DB) correlatedCall(tf *sqlast.TableFunc, prior []entryMeta) bool {
	for _, a := range tf.Call.Args {
		aliases, _, hasSub, unresolved := refsOf(a, prior)
		if len(aliases) > 0 || hasSub || unresolved || db.callsRoutine(a) {
			return true
		}
	}
	return false
}

// joinPlan is a join of a left and a right layout bound once: the
// sides of its equality conjuncts (hash-join keys, each side bound
// against its own layout), the remaining conjuncts bound against the
// combined layout in cost order, and — for the interval stab probe —
// the left-layout forms of rest comparison operands that face a
// column.
type joinPlan struct {
	lkeys, rkeys []boundExpr
	// rsig is the rendered right-key signature under which a prepared
	// right relation caches its hash table; "" when a key is not a
	// plain column (the table is then built per execution).
	rsig string
	rest filter
	stab map[sqlast.Expr]boundExpr
}

// planJoin splits on into hash-join keys and rest conjuncts and binds
// them; pin is nil when the plan serves one execution.
func (db *DB) planJoin(pin *storage.Pin, lm, rm []entryMeta, on []*conjunct) (*joinPlan, error) {
	// split equi conjuncts: one side ⊆ left metas, other ⊆ right metas
	var lkeys, rkeys []sqlast.Expr
	var rest []*conjunct
	for _, c := range on {
		if l, r, ok := c.equiSides(lm, rm); ok {
			lkeys = append(lkeys, l)
			rkeys = append(rkeys, r)
		} else {
			rest = append(rest, c)
		}
	}
	db.orderByCost(rest)
	lb := &binder{db: db, layout: lm, pin: pin}
	rb := &binder{db: db, layout: rm, pin: pin}
	cb := &binder{db: db, layout: append(append([]entryMeta{}, lm...), rm...), pin: pin}
	jp := &joinPlan{lkeys: lb.bindAll(lkeys), rkeys: rb.bindAll(rkeys), rest: cb.bindFilter(rest)}
	if err := firstErr(lb.err, rb.err, cb.err); err != nil {
		return nil, err
	}
	for _, k := range rkeys {
		s := renderSQL(k)
		if _, isCol := k.(*sqlast.ColumnRef); !isCol || s == "" {
			jp.rsig = ""
			break
		}
		jp.rsig += s + "|"
	}
	// Stab operands are only candidates: one that is not evaluable
	// against the left row falls back to the full inner iteration, so
	// their bind errors are not the plan's.
	sb := &binder{db: db, layout: lm, pin: pin}
	for _, c := range rest {
		b, ok := c.expr.(*sqlast.BinaryExpr)
		if !ok {
			continue
		}
		var x sqlast.Expr
		switch b.Op {
		case "<=", ">":
			if _, isCol := b.L.(*sqlast.ColumnRef); isCol {
				x = b.R
			}
		case ">=", "<":
			if _, isCol := b.R.(*sqlast.ColumnRef); isCol {
				x = b.L
			}
		}
		if x != nil {
			if jp.stab == nil {
				jp.stab = map[sqlast.Expr]boundExpr{}
			}
			jp.stab[x] = sb.bind(x)
		}
	}
	return jp, nil
}

// joinRels joins two relations under a join plan bound against their
// layouts, hash-joining on its equality keys when it has any.
// leftOuter preserves unmatched left rows with NULL extension.
func (db *DB) joinRels(ctx *execCtx, left, right *rel, jp *joinPlan, leftOuter bool) (*rel, error) {
	out := &rel{metas: append(append([]entryMeta{}, left.metas...), right.metas...)}
	rest := jp.rest

	nullRight := make([][]types.Value, len(right.metas))
	for i, m := range right.metas {
		nr := make([]types.Value, len(m.cols))
		nullRight[i] = nr
	}

	if len(jp.lkeys) > 0 {
		// hash join (the build side is shared across a fragment batch
		// when the right relation came from the prepared plan)
		index, err := db.hashIndexFor(ctx, right, jp)
		if err != nil {
			return nil, err
		}
		for _, lrow := range left.rows {
			key, null, err := keyOf(ctx, jp.lkeys, lrow)
			matched := false
			if err != nil {
				return nil, err
			}
			if !null {
				for _, rrow := range index[key] {
					combined := append(append([][]types.Value{}, lrow...), rrow...)
					ok, err := rest.pass(ctx, combined, -1)
					if err != nil {
						return nil, err
					}
					if ok {
						out.rows = append(out.rows, combined)
						matched = true
					}
				}
			}
			if leftOuter && !matched {
				out.rows = append(out.rows, append(append([][]types.Value{}, lrow...), nullRight...))
			}
		}
		return out, nil
	}

	// Interval stab join: when the right side scanned a stored temporal
	// table and the join predicates contain the injected point-overlap
	// pair t.begin <= X AND X < t.end with X from the left side, probe
	// the right table's interval index per left row instead of testing
	// every (left, right) pair. All rest conjuncts — the pair included —
	// are still evaluated on each candidate, so semantics are exactly
	// the nested loop's.
	if right.tab != nil && len(right.metas) == 1 &&
		len(right.ords) == len(right.rows) && !db.DisableIndexes {
		if x := jp.stab[findStab(rest.conj, right.tab, right.metas[0].alias)]; x != nil {
			var cand []int
			for _, lrow := range left.rows {
				probed := false
				cand = cand[:0]
				if v, err := x(ctx, lrow); err == nil &&
					(v.Kind == types.KindDate || v.Kind == types.KindInt) {
					if ords, ok := right.tab.Overlapping(v.I, v.I); ok {
						db.Stats.IntervalProbes++
						probed = true
						// Intersect candidate table ordinals with the rows
						// the right scan kept (both ascending).
						j := 0
						for _, o := range ords {
							for j < len(right.ords) && right.ords[j] < o {
								j++
							}
							if j < len(right.ords) && right.ords[j] == o {
								cand = append(cand, j)
								j++
							}
						}
					}
				}
				matched := false
				try := func(rrow [][]types.Value) error {
					combined := append(append([][]types.Value{}, lrow...), rrow...)
					ok, err := rest.pass(ctx, combined, -1)
					if err != nil {
						return err
					}
					if ok {
						out.rows = append(out.rows, combined)
						matched = true
					}
					return nil
				}
				if probed {
					for _, j := range cand {
						if err := try(right.rows[j]); err != nil {
							return nil, err
						}
					}
				} else {
					// X not evaluable against this left row: fall back to
					// the full inner iteration for it.
					for _, rrow := range right.rows {
						if err := try(rrow); err != nil {
							return nil, err
						}
					}
				}
				if leftOuter && !matched {
					out.rows = append(out.rows, append(append([][]types.Value{}, lrow...), nullRight...))
				}
			}
			return out, nil
		}
	}

	// nested loop
	for _, lrow := range left.rows {
		matched := false
		for _, rrow := range right.rows {
			combined := append(append([][]types.Value{}, lrow...), rrow...)
			ok, err := rest.pass(ctx, combined, -1)
			if err != nil {
				return nil, err
			}
			if ok {
				out.rows = append(out.rows, combined)
				matched = true
			}
		}
		if leftOuter && !matched {
			out.rows = append(out.rows, append(append([][]types.Value{}, lrow...), nullRight...))
		}
	}
	return out, nil
}

// keyOf evaluates bound key expressions over row and returns a
// composite hash key; null=true when any key is NULL (such rows never
// join).
func keyOf(ctx *execCtx, keys []boundExpr, row [][]types.Value) (string, bool, error) {
	var b strings.Builder
	for _, k := range keys {
		v, err := k(ctx, row)
		if err != nil {
			return "", false, err
		}
		if v.IsNull() {
			return "", true, nil
		}
		b.WriteString(v.HashKey())
		b.WriteByte('|')
	}
	return b.String(), false, nil
}
