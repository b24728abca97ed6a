package engine

import (
	"fmt"
	"sort"
	"strings"

	"taupsm/internal/sqlast"
	"taupsm/internal/types"
)

// conjunct is one AND-factor of a WHERE clause, annotated with the
// correlation names (of the current query level) it references.
type conjunct struct {
	expr       sqlast.Expr
	aliases    map[string]bool
	hasSub     bool
	unresolved bool
	// external marks conjuncts referencing names that resolve outside
	// this query level's metas — routine parameters, outer-query
	// columns. Their value can change between executions of the same
	// statement, so a prepared plan never caches a relation filtered by
	// one.
	external bool
	// expensive marks conjuncts containing subqueries or stored-routine
	// calls. Computed eagerly at analysis time so conjuncts cached in a
	// selPlan are immutable and safe to share across sessions.
	expensive bool
}

// refsOf analyzes which of the metas' aliases expr references.
// external reports references that resolve outside the metas.
func refsOf(expr sqlast.Expr, metas []entryMeta) (aliases map[string]bool, external, hasSub, unresolved bool) {
	aliases = map[string]bool{}
	sqlast.Walk(expr, func(n sqlast.Node) bool {
		switch x := n.(type) {
		case *sqlast.SubqueryExpr, *sqlast.ExistsExpr:
			hasSub = true
			return false
		case *sqlast.InExpr:
			if x.Sub != nil {
				hasSub = true
			}
			return true
		case *sqlast.ColumnRef:
			if x.Table != "" {
				found := false
				for _, m := range metas {
					if strings.EqualFold(m.alias, x.Table) {
						aliases[strings.ToLower(m.alias)] = true
						found = true
						break
					}
				}
				if !found {
					external = true
				}
				return true
			}
			matches := 0
			last := ""
			for _, m := range metas {
				for _, c := range m.cols {
					if strings.EqualFold(c, x.Column) {
						matches++
						last = strings.ToLower(m.alias)
						break
					}
				}
			}
			switch matches {
			case 0:
				external = true
			case 1:
				aliases[last] = true
			default:
				unresolved = true
			}
		}
		return true
	})
	return
}

// splitConjuncts decomposes a WHERE clause into AND-factors analyzed
// against metas.
func (db *DB) splitConjuncts(where sqlast.Expr, metas []entryMeta) []*conjunct {
	var exprs []sqlast.Expr
	var split func(e sqlast.Expr)
	split = func(e sqlast.Expr) {
		if b, ok := e.(*sqlast.BinaryExpr); ok && b.Op == "AND" {
			split(b.L)
			split(b.R)
			return
		}
		exprs = append(exprs, e)
	}
	if where != nil {
		split(where)
	}
	out := make([]*conjunct, 0, len(exprs))
	for _, e := range exprs {
		al, ext, hasSub, unres := refsOf(e, metas)
		c := &conjunct{expr: e, aliases: al, hasSub: hasSub, unresolved: unres, external: ext}
		c.expensive = hasSub || db.callsRoutine(e)
		out = append(out, c)
	}
	return out
}

// callsRoutine reports whether the expression invokes a stored routine.
func (db *DB) callsRoutine(e sqlast.Expr) bool {
	found := false
	sqlast.Walk(e, func(n sqlast.Node) bool {
		if fc, ok := n.(*sqlast.FuncCall); ok {
			if db.Cat.Routine(fc.Name) != nil {
				found = true
			}
		}
		return !found
	})
	return found
}

// subsetOf reports whether the conjunct references only the given
// metas' aliases (and is safe to push down to them).
func (c *conjunct) subsetOf(metas []entryMeta) bool {
	if c.unresolved || c.hasSub {
		return false
	}
	for a := range c.aliases {
		found := false
		for _, m := range metas {
			if strings.EqualFold(m.alias, a) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// equiSides reports whether the conjunct is an equality whose sides
// reference exclusively the left and right metas respectively.
func (c *conjunct) equiSides(lm, rm []entryMeta) (sqlast.Expr, sqlast.Expr, bool) {
	if c.unresolved || c.hasSub {
		return nil, nil, false
	}
	b, ok := c.expr.(*sqlast.BinaryExpr)
	if !ok || b.Op != "=" {
		return nil, nil, false
	}
	la, lext, lsub, lunres := refsOf(b.L, append(append([]entryMeta{}, lm...), rm...))
	ra, rext, rsub, runres := refsOf(b.R, append(append([]entryMeta{}, lm...), rm...))
	if lsub || rsub || lunres || runres || lext || rext {
		return nil, nil, false
	}
	onlyIn := func(as map[string]bool, ms []entryMeta) bool {
		if len(as) == 0 {
			return false
		}
		for a := range as {
			found := false
			for _, m := range ms {
				if strings.EqualFold(m.alias, a) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	switch {
	case onlyIn(la, lm) && onlyIn(ra, rm):
		return b.L, b.R, true
	case onlyIn(la, rm) && onlyIn(ra, lm):
		return b.R, b.L, true
	}
	return nil, nil, false
}

// indexable reports a column of this source compared for equality with
// an expression free of this source's columns: (col, valueExpr).
func (c *conjunct) indexable(alias string, cols []string) (string, sqlast.Expr) {
	if c.hasSub || c.unresolved {
		return "", nil
	}
	b, ok := c.expr.(*sqlast.BinaryExpr)
	if !ok || b.Op != "=" {
		return "", nil
	}
	meta := []entryMeta{{alias: alias, cols: cols}}
	try := func(colSide, valSide sqlast.Expr) (string, sqlast.Expr) {
		cr, ok := colSide.(*sqlast.ColumnRef)
		if !ok {
			return "", nil
		}
		if cr.Table != "" && !strings.EqualFold(cr.Table, alias) {
			return "", nil
		}
		found := false
		for _, cc := range cols {
			if strings.EqualFold(cc, cr.Column) {
				found = true
				break
			}
		}
		if !found {
			return "", nil
		}
		va, _, vsub, vunres := refsOf(valSide, meta)
		if vsub || vunres || len(va) > 0 {
			return "", nil
		}
		return cr.Column, valSide
	}
	if col, v := try(b.L, b.R); col != "" {
		return col, v
	}
	return try(b.R, b.L)
}

// orderByCost stably moves conjuncts that invoke stored routines (or
// contain subqueries) after plain predicates.
func (db *DB) orderByCost(cs []*conjunct) {
	if db.DisableCostOrdering {
		return
	}
	cheap := make([]*conjunct, 0, len(cs))
	var costly []*conjunct
	for _, c := range cs {
		if c.expensive {
			costly = append(costly, c)
		} else {
			cheap = append(cheap, c)
		}
	}
	copy(cs, append(cheap, costly...))
}

// evalQuery evaluates any query body.
func (db *DB) evalQuery(ctx *execCtx, q sqlast.QueryExpr) (*Result, error) {
	return db.evalQueryLimited(ctx, q, 0)
}

// evalQueryLimited is evalQuery with an optional row-count hint
// (0 = unlimited) used by EXISTS and scalar subqueries.
func (db *DB) evalQueryLimited(ctx *execCtx, q sqlast.QueryExpr, limitHint int) (*Result, error) {
	switch x := q.(type) {
	case *sqlast.SelectStmt:
		return db.evalSelect(ctx, x, limitHint)
	case *sqlast.SetOpExpr:
		return db.evalSetOp(ctx, x)
	case *sqlast.ValuesExpr:
		var res Result
		for _, row := range x.Rows {
			var out []types.Value
			for _, e := range row {
				v, err := db.evalExpr(ctx, e)
				if err != nil {
					return nil, err
				}
				out = append(out, v)
			}
			res.Rows = append(res.Rows, out)
		}
		if len(x.Rows) > 0 {
			for i := range x.Rows[0] {
				res.Cols = append(res.Cols, fmt.Sprintf("col%d", i+1))
			}
		}
		return &res, nil
	}
	return nil, fmt.Errorf("engine: unsupported query %T", q)
}

func (db *DB) evalSelect(ctx *execCtx, sel *sqlast.SelectStmt, limitHint int) (*Result, error) {
	// FROM-less SELECT evaluates items once in the current scope.
	if len(sel.From) == 0 {
		res := &Result{}
		var row []types.Value
		for i, it := range sel.Items {
			if it.Star || it.TableStar != "" {
				return nil, fmt.Errorf("SELECT * requires a FROM clause")
			}
			v, err := db.evalExpr(ctx, it.Expr)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			res.Cols = append(res.Cols, itemName(it, i))
		}
		if sel.Where != nil {
			v, err := db.evalExpr(ctx, sel.Where)
			if err != nil {
				return nil, err
			}
			if types.TriboolFromValue(v) != types.True {
				return res, nil
			}
		}
		res.Rows = append(res.Rows, row)
		return res, nil
	}

	// The plan — source metas, conjunct sites and their bound forms —
	// is a pure function of the statement and the schema; fetch it from
	// the shared plan cache (building on miss).
	plan, err := db.selPlanFor(ctx, sel)
	if err != nil {
		return nil, err
	}

	// Sequential join.
	acc := &rel{rows: [][][]types.Value{{}}}
	for i, fr := range sel.From {
		ms := plan.srcMetas[i]
		st := &plan.steps[i]
		if st.tf != nil {
			if len(acc.metas) > 0 && len(acc.rows) == 0 {
				// Nothing to pair the function's rows with: skip the
				// call, as the per-row evaluation below would.
				acc = &rel{metas: append(append([]entryMeta{}, acc.metas...), ms...)}
				continue
			}
			if st.lateral {
				if acc, err = db.lateralTableFunc(ctx, st, acc, ms); err != nil {
					return nil, err
				}
				continue
			}
			// Otherwise the function is an ordinary source: called once,
			// scanned with pushdown, and joined below.
		}
		loaded, err := db.loadSourcePrepared(ctx, fr, ms, st.conds, st.tf)
		if err != nil {
			return nil, err
		}
		if st.join == nil {
			acc = loaded
			continue
		}
		acc, err = db.joinRels(ctx, acc, loaded, st.join, false)
		if err != nil {
			return nil, err
		}
	}

	if len(plan.residual.eval) > 0 {
		kept := acc.rows[:0:0]
		for _, row := range acc.rows {
			keep, err := plan.residual.pass(ctx, row, -1)
			if err != nil {
				return nil, err
			}
			if keep {
				kept = append(kept, row)
			}
		}
		acc.rows = kept
	}

	// Aggregation or plain projection.
	if plan.grouped {
		return db.evalGrouped(ctx, sel, acc, plan.aggs)
	}
	return db.project(ctx, sel, plan.proj, acc, limitHint)
}

// lateralTableFunc joins acc with a correlated table function, calling
// it once per accumulated row with its arguments evaluated over that
// row. Repeated argument vectors of a write-free routine are answered
// from the statement memo (fnmemo.go). The step's conds — the
// conjuncts applicable once the function's columns are bound — filter
// each combined row.
func (db *DB) lateralTableFunc(ctx *execCtx, st *selStep, acc *rel, ms []entryMeta) (*rel, error) {
	next := &rel{metas: append(append([]entryMeta{}, acc.metas...), ms...)}
	for _, arow := range acc.rows {
		t, err := db.tableFunc(ctx, st.tf, arow, ms[0])
		if err != nil {
			return nil, err
		}
		if t == nil {
			continue
		}
		for _, frow := range t.Rows {
			combined := append(append(make([][]types.Value, 0, len(arow)+1), arow...), frow)
			keep, err := st.conds.pass(ctx, combined, -1)
			if err != nil {
				return nil, err
			}
			if keep {
				next.rows = append(next.rows, combined)
			}
		}
	}
	return next, nil
}

func itemName(it sqlast.SelectItem, i int) string {
	if it.Alias != "" {
		return it.Alias
	}
	if cr, ok := it.Expr.(*sqlast.ColumnRef); ok {
		return cr.Column
	}
	return fmt.Sprintf("col%d", i+1)
}

// project evaluates the bound select list per row, then applies
// DISTINCT, ORDER BY, and the row limit.
func (db *DB) project(ctx *execCtx, sel *sqlast.SelectStmt, pp *projPlan, acc *rel, limitHint int) (*Result, error) {
	res := &Result{}
	// output column names
	for i, it := range sel.Items {
		switch {
		case it.Star:
			for _, m := range acc.metas {
				res.Cols = append(res.Cols, m.cols...)
			}
		case it.TableStar != "":
			for _, m := range acc.metas {
				if strings.EqualFold(m.alias, it.TableStar) {
					res.Cols = append(res.Cols, m.cols...)
				}
			}
		default:
			res.Cols = append(res.Cols, itemName(it, i))
		}
	}

	fastLimit := limitHint > 0 && len(sel.OrderBy) == 0 && !sel.Distinct
	n := len(acc.rows)
	if fastLimit && limitHint < n {
		n = limitHint
	}
	rows := make([]projRow, 0, n)
	for _, row := range acc.rows {
		vals := make([]types.Value, 0, pp.nvals)
		for i, it := range sel.Items {
			switch {
			case it.Star:
				for _, er := range row {
					vals = append(vals, er...)
				}
			case it.TableStar != "":
				for mi, m := range acc.metas {
					if strings.EqualFold(m.alias, it.TableStar) {
						vals = append(vals, row[mi]...)
					}
				}
			default:
				v, err := pp.items[i](ctx, row)
				if err != nil {
					return nil, err
				}
				vals = append(vals, v)
			}
		}
		or := projRow{vals: vals}
		if len(pp.order) > 0 {
			keys, err := pp.orderKeys(ctx, row, vals)
			if err != nil {
				return nil, err
			}
			or.keys = keys
		}
		rows = append(rows, or)
		if fastLimit && len(rows) >= limitHint {
			break
		}
	}

	return db.finishResult(ctx, sel, res, rows)
}

// orderKeys computes the bound ORDER BY keys of one output row.
func (pp *projPlan) orderKeys(ctx *execCtx, row [][]types.Value, vals []types.Value) ([]types.Value, error) {
	keys := make([]types.Value, len(pp.order))
	for i, k := range pp.order {
		switch {
		case k.err != nil:
			return nil, k.err
		case k.slot >= 0:
			keys[i] = vals[k.slot]
		default:
			v, err := k.eval(ctx, row)
			if err != nil {
				return nil, err
			}
			keys[i] = v
		}
	}
	return keys, nil
}

// projRow is a projected output row with its ORDER BY sort keys.
type projRow struct {
	vals []types.Value
	keys []types.Value
}

// finishResult applies DISTINCT, ORDER BY and FETCH FIRST to projected
// rows.
func (db *DB) finishResult(ctx *execCtx, sel *sqlast.SelectStmt, res *Result, rows []projRow) (*Result, error) {
	if sel.Distinct {
		seen := make(map[string]bool, len(rows))
		dedup := rows[:0:0]
		for _, r := range rows {
			k := rowKey(r.vals)
			if !seen[k] {
				seen[k] = true
				dedup = append(dedup, r)
			}
		}
		rows = dedup
	}
	if len(sel.OrderBy) > 0 {
		sort.SliceStable(rows, func(i, j int) bool {
			return lessKeys(rows[i].keys, rows[j].keys, sel.OrderBy)
		})
	}
	if sel.Limit != nil {
		lv, err := db.evalExpr(ctx, sel.Limit)
		if err != nil {
			return nil, err
		}
		n := int(lv.Int())
		if n < len(rows) {
			rows = rows[:n]
		}
	}
	for _, r := range rows {
		res.Rows = append(res.Rows, r.vals)
	}
	return res, nil
}

// orderKeys computes ORDER BY sort keys for one grouped output row.
// ORDER BY expressions may be ordinals, select-list aliases, or
// arbitrary expressions over the row scope (orderKeyFor is the bound
// counterpart of this resolution).
func (db *DB) orderKeys(rctx *execCtx, sel *sqlast.SelectStmt, vals []types.Value) ([]types.Value, error) {
	keys := make([]types.Value, len(sel.OrderBy))
	for i, o := range sel.OrderBy {
		// ordinal
		if lit, ok := o.Expr.(*sqlast.Literal); ok && lit.Val.Kind == types.KindInt {
			n := int(lit.Val.I)
			if n >= 1 && n <= len(vals) {
				keys[i] = vals[n-1]
				continue
			}
			return nil, fmt.Errorf("ORDER BY ordinal %d out of range", n)
		}
		// select-list alias
		if cr, ok := o.Expr.(*sqlast.ColumnRef); ok && cr.Table == "" {
			found := false
			for j, it := range sel.Items {
				if it.Alias != "" && strings.EqualFold(it.Alias, cr.Column) && j < len(vals) {
					keys[i] = vals[j]
					found = true
					break
				}
			}
			if found {
				continue
			}
		}
		v, err := db.evalExpr(rctx, o.Expr)
		if err != nil {
			return nil, err
		}
		keys[i] = v
	}
	return keys, nil
}

func lessKeys(a, b []types.Value, order []sqlast.OrderItem) bool {
	for i := range order {
		av, bv := a[i], b[i]
		// NULLs sort last in ascending order.
		switch {
		case av.IsNull() && bv.IsNull():
			continue
		case av.IsNull():
			return order[i].Desc
		case bv.IsNull():
			return !order[i].Desc
		}
		c, ok := types.Compare(av, bv)
		if !ok || c == 0 {
			continue
		}
		if order[i].Desc {
			return c > 0
		}
		return c < 0
	}
	return false
}

func rowKey(vals []types.Value) string {
	var b strings.Builder
	for _, v := range vals {
		b.WriteString(v.HashKey())
		b.WriteByte('|')
	}
	return b.String()
}

func (db *DB) evalSetOp(ctx *execCtx, so *sqlast.SetOpExpr) (*Result, error) {
	l, err := db.evalQuery(ctx, so.L)
	if err != nil {
		return nil, err
	}
	r, err := db.evalQuery(ctx, so.R)
	if err != nil {
		return nil, err
	}
	if len(l.Cols) != len(r.Cols) {
		return nil, fmt.Errorf("%s operands have different column counts (%d vs %d)", so.Op, len(l.Cols), len(r.Cols))
	}
	res := &Result{Cols: l.Cols}
	switch so.Op {
	case "UNION":
		if so.All {
			res.Rows = append(append([][]types.Value{}, l.Rows...), r.Rows...)
		} else {
			seen := map[string]bool{}
			for _, rows := range [][][]types.Value{l.Rows, r.Rows} {
				for _, row := range rows {
					k := rowKey(row)
					if !seen[k] {
						seen[k] = true
						res.Rows = append(res.Rows, row)
					}
				}
			}
		}
	case "EXCEPT":
		counts := map[string]int{}
		for _, row := range r.Rows {
			counts[rowKey(row)]++
		}
		seen := map[string]bool{}
		for _, row := range l.Rows {
			k := rowKey(row)
			if so.All {
				if counts[k] > 0 {
					counts[k]--
					continue
				}
				res.Rows = append(res.Rows, row)
			} else {
				if counts[k] == 0 && !seen[k] {
					seen[k] = true
					res.Rows = append(res.Rows, row)
				}
			}
		}
	case "INTERSECT":
		counts := map[string]int{}
		for _, row := range r.Rows {
			counts[rowKey(row)]++
		}
		seen := map[string]bool{}
		for _, row := range l.Rows {
			k := rowKey(row)
			if so.All {
				if counts[k] > 0 {
					counts[k]--
					res.Rows = append(res.Rows, row)
				}
			} else {
				if counts[k] > 0 && !seen[k] {
					seen[k] = true
					res.Rows = append(res.Rows, row)
				}
			}
		}
	default:
		return nil, fmt.Errorf("unknown set operation %s", so.Op)
	}
	if len(so.OrderBy) > 0 {
		// Sort by ordinal or column name of the combined result.
		type kr struct {
			vals []types.Value
			keys []types.Value
		}
		rows := make([]kr, len(res.Rows))
		for i, row := range res.Rows {
			keys := make([]types.Value, len(so.OrderBy))
			for j, o := range so.OrderBy {
				switch e := o.Expr.(type) {
				case *sqlast.Literal:
					n := int(e.Val.I)
					if n < 1 || n > len(row) {
						return nil, fmt.Errorf("ORDER BY ordinal %d out of range", n)
					}
					keys[j] = row[n-1]
				case *sqlast.ColumnRef:
					idx := -1
					for k, c := range res.Cols {
						if strings.EqualFold(c, e.Column) {
							idx = k
							break
						}
					}
					if idx < 0 {
						return nil, fmt.Errorf("ORDER BY column %s not in result", e.Column)
					}
					keys[j] = row[idx]
				default:
					return nil, fmt.Errorf("unsupported ORDER BY expression after set operation")
				}
			}
			rows[i] = kr{vals: row, keys: keys}
		}
		sort.SliceStable(rows, func(i, j int) bool { return lessKeys(rows[i].keys, rows[j].keys, so.OrderBy) })
		res.Rows = res.Rows[:0]
		for _, r := range rows {
			res.Rows = append(res.Rows, r.vals)
		}
	}
	return res, nil
}
