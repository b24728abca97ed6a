package engine

import (
	"fmt"
	"strings"

	"taupsm/internal/sqlast"
	"taupsm/internal/types"
)

// execCtx carries the dynamic state of one evaluation: the row scope
// chain for correlated evaluation, the PSM variable frame of the
// enclosing routine (if any), aggregate shortcut values during group
// output, and a recursion depth guard.
type execCtx struct {
	db      *DB
	vars    *varFrame
	scope   *rowScope
	aggVals map[*sqlast.FuncCall]types.Value
	depth   int
	planRec *planRecorder // non-nil only while building a cached plan
	memo    *fnMemoState  // per-statement function-result memo (nil = off)
	journal *Journal      // undo/redo journal of the enclosing statement (nil = unjournaled)
	prep    *Prepared     // shared prepared-plan caches of a fragment batch (nil = unprepared)
	plans   *planCache    // SELECT plans of the owning statement or Prepared (nil = uncached)
}

// child returns a copy of ctx with a new scope pushed.
func (ctx *execCtx) withScope(s *rowScope) *execCtx {
	c := *ctx
	c.scope = s
	return &c
}

// rowScope is one level of FROM-clause bindings — the layout of a
// site and the row currently bound to it; parent points to the
// enclosing query's scope (for correlated subqueries). Evaluation paths
// that bind their expressions at plan build (bind.go) index rows
// directly and build a rowScope only where they hand a row to the
// interpretive evaluator.
type rowScope struct {
	parent *rowScope
	metas  []entryMeta
	row    [][]types.Value
}

// lookup resolves a possibly qualified column reference against the
// scope chain. found=false means the name is not a column anywhere in
// scope (the caller may then try PSM variables).
func (s *rowScope) lookup(tbl, col string) (types.Value, bool, error) {
	for sc := s; sc != nil; sc = sc.parent {
		e, c, err := resolveColumn(sc.metas, tbl, col)
		if err != nil {
			return types.Null, false, err
		}
		if e >= 0 {
			return sc.row[e][c], true, nil
		}
	}
	return types.Null, false, nil
}

// resolveColumn resolves a column reference against one scope level's
// layout: the entry and column it names, e = -1 when the name is not
// local (resolution continues in the enclosing scope), or a hard error.
// A qualifier selects the first entry with that alias; an unqualified
// name must match exactly one column of the level.
func resolveColumn(metas []entryMeta, tbl, col string) (e, c int, err error) {
	if tbl != "" {
		for i := range metas {
			m := &metas[i]
			if strings.EqualFold(m.alias, tbl) {
				for j, mc := range m.cols {
					if strings.EqualFold(mc, col) {
						return i, j, nil
					}
				}
				return -1, -1, fmt.Errorf("column %s.%s does not exist", tbl, col)
			}
		}
		return -1, -1, nil
	}
	e, c = -1, -1
	for i := range metas {
		for j, mc := range metas[i].cols {
			if strings.EqualFold(mc, col) {
				if e >= 0 {
					return -1, -1, fmt.Errorf("column reference %s is ambiguous", col)
				}
				e, c = i, j
			}
		}
	}
	return e, c, nil
}

// resolveOuter resolves a name that is not a column of the evaluating
// site: through the enclosing scope chain, then (unqualified names) the
// PSM variables. key is col lowercased, or "" to lower it on demand.
func resolveOuter(ctx *execCtx, tbl, col, key string) (types.Value, error) {
	if ctx.scope != nil {
		v, ok, err := ctx.scope.lookup(tbl, col)
		if err != nil {
			return types.Null, err
		}
		if ok {
			return v, nil
		}
	}
	if tbl != "" {
		return types.Null, fmt.Errorf("column %s.%s not found", tbl, col)
	}
	if ctx.vars != nil {
		if key == "" {
			key = strings.ToLower(col)
		}
		if v, ok := ctx.vars.getKey(key); ok {
			return v, nil
		}
	}
	return types.Null, fmt.Errorf("name %s is neither a column in scope nor a variable", col)
}

// evalExpr evaluates a scalar expression in ctx.
func (db *DB) evalExpr(ctx *execCtx, e sqlast.Expr) (types.Value, error) {
	switch x := e.(type) {
	case *sqlast.Literal:
		return x.Val, nil
	case *sqlast.ColumnRef:
		return resolveOuter(ctx, x.Table, x.Column, "")
	case *sqlast.BinaryExpr:
		return db.evalBinary(ctx, x)
	case *sqlast.UnaryExpr:
		v, err := db.evalExpr(ctx, x.X)
		if err != nil {
			return types.Null, err
		}
		return unaryValue(x.Op, v)
	case *sqlast.IsNullExpr:
		v, err := db.evalExpr(ctx, x.X)
		if err != nil {
			return types.Null, err
		}
		return types.NewBool(v.IsNull() != x.Not), nil
	case *sqlast.BetweenExpr:
		v, err := db.evalExpr(ctx, x.X)
		if err != nil {
			return types.Null, err
		}
		lo, err := db.evalExpr(ctx, x.Lo)
		if err != nil {
			return types.Null, err
		}
		hi, err := db.evalExpr(ctx, x.Hi)
		if err != nil {
			return types.Null, err
		}
		return betweenValue(v, lo, hi, x.Not), nil
	case *sqlast.InExpr:
		return db.evalIn(ctx, x)
	case *sqlast.ExistsExpr:
		res, err := db.evalQueryLimited(ctx, x.Sub, 1)
		if err != nil {
			return types.Null, err
		}
		return types.NewBool((len(res.Rows) > 0) != x.Not), nil
	case *sqlast.LikeExpr:
		v, err := db.evalExpr(ctx, x.X)
		if err != nil {
			return types.Null, err
		}
		pat, err := db.evalExpr(ctx, x.Pattern)
		if err != nil {
			return types.Null, err
		}
		return likeValue(v, pat, x.Not), nil
	case *sqlast.CaseExpr:
		return db.evalCase(ctx, x)
	case *sqlast.CastExpr:
		v, err := db.evalExpr(ctx, x.X)
		if err != nil {
			return types.Null, err
		}
		return castValue(v, x.Type)
	case *sqlast.FuncCall:
		if ctx.aggVals != nil {
			if v, ok := ctx.aggVals[x]; ok {
				return v, nil
			}
		}
		return db.evalFuncCall(ctx, x)
	case *sqlast.SubqueryExpr:
		return db.evalScalarSubquery(ctx, x.Query)
	}
	return types.Null, fmt.Errorf("engine: unsupported expression %T", e)
}

func (db *DB) evalBinary(ctx *execCtx, x *sqlast.BinaryExpr) (types.Value, error) {
	switch x.Op {
	case "AND":
		l, err := db.evalExpr(ctx, x.L)
		if err != nil {
			return types.Null, err
		}
		lt := types.TriboolFromValue(l)
		if lt == types.False {
			return types.NewBool(false), nil
		}
		r, err := db.evalExpr(ctx, x.R)
		if err != nil {
			return types.Null, err
		}
		return lt.And(types.TriboolFromValue(r)).Value(), nil
	case "OR":
		l, err := db.evalExpr(ctx, x.L)
		if err != nil {
			return types.Null, err
		}
		lt := types.TriboolFromValue(l)
		if lt == types.True {
			return types.NewBool(true), nil
		}
		r, err := db.evalExpr(ctx, x.R)
		if err != nil {
			return types.Null, err
		}
		return lt.Or(types.TriboolFromValue(r)).Value(), nil
	case "=", "<>", "<", "<=", ">", ">=":
		l, err := db.evalExpr(ctx, x.L)
		if err != nil {
			return types.Null, err
		}
		r, err := db.evalExpr(ctx, x.R)
		if err != nil {
			return types.Null, err
		}
		return types.CompareOp(x.Op, l, r).Value(), nil
	default:
		l, err := db.evalExpr(ctx, x.L)
		if err != nil {
			return types.Null, err
		}
		r, err := db.evalExpr(ctx, x.R)
		if err != nil {
			return types.Null, err
		}
		return types.Arith(x.Op, l, r)
	}
}

func (db *DB) evalIn(ctx *execCtx, x *sqlast.InExpr) (types.Value, error) {
	v, err := db.evalExpr(ctx, x.X)
	if err != nil {
		return types.Null, err
	}
	in := newInAcc(v)
	if x.Sub != nil {
		res, err := db.evalQuery(ctx, x.Sub)
		if err != nil {
			return types.Null, err
		}
		if len(res.Cols) != 1 {
			return types.Null, fmt.Errorf("IN subquery must return one column, got %d", len(res.Cols))
		}
		for _, r := range res.Rows {
			in.add(r[0])
		}
	} else {
		for _, le := range x.List {
			lv, err := db.evalExpr(ctx, le)
			if err != nil {
				return types.Null, err
			}
			in.add(lv)
		}
	}
	return in.value(x.Not), nil
}

// inAcc accumulates the 3VL membership test of an IN predicate.
type inAcc struct {
	v       types.Value
	result  types.Tribool
	sawNull bool
}

func newInAcc(v types.Value) inAcc {
	return inAcc{v: v, result: types.False, sawNull: v.IsNull()}
}

func (a *inAcc) add(lv types.Value) {
	switch types.CompareOp("=", a.v, lv) {
	case types.True:
		a.result = types.True
	case types.Unknown:
		a.sawNull = true
	}
}

func (a *inAcc) value(not bool) types.Value {
	r := a.result
	if r != types.True && a.sawNull {
		r = types.Unknown
	}
	if not {
		r = r.Not()
	}
	return r.Value()
}

// unaryValue applies a unary operator to its evaluated operand.
func unaryValue(op string, v types.Value) (types.Value, error) {
	switch op {
	case "NOT":
		return types.TriboolFromValue(v).Not().Value(), nil
	case "-":
		return types.Arith("-", types.NewInt(0), v)
	}
	return types.Null, fmt.Errorf("unknown unary operator %q", op)
}

// betweenValue is [NOT] BETWEEN over evaluated operands.
func betweenValue(v, lo, hi types.Value, not bool) types.Value {
	r := types.CompareOp(">=", v, lo).And(types.CompareOp("<=", v, hi))
	if not {
		r = r.Not()
	}
	return r.Value()
}

// likeValue is [NOT] LIKE over evaluated operands.
func likeValue(v, pat types.Value, not bool) types.Value {
	if v.IsNull() || pat.IsNull() {
		return types.Null
	}
	return types.NewBool(likeMatch(v.Text(), pat.Text()) != not)
}

func (db *DB) evalCase(ctx *execCtx, x *sqlast.CaseExpr) (types.Value, error) {
	if x.Operand != nil {
		op, err := db.evalExpr(ctx, x.Operand)
		if err != nil {
			return types.Null, err
		}
		for _, w := range x.Whens {
			wv, err := db.evalExpr(ctx, w.When)
			if err != nil {
				return types.Null, err
			}
			if types.CompareOp("=", op, wv) == types.True {
				return db.evalExpr(ctx, w.Then)
			}
		}
	} else {
		for _, w := range x.Whens {
			wv, err := db.evalExpr(ctx, w.When)
			if err != nil {
				return types.Null, err
			}
			if types.TriboolFromValue(wv) == types.True {
				return db.evalExpr(ctx, w.Then)
			}
		}
	}
	if x.Else != nil {
		return db.evalExpr(ctx, x.Else)
	}
	return types.Null, nil
}

func (db *DB) evalScalarSubquery(ctx *execCtx, q sqlast.QueryExpr) (types.Value, error) {
	res, err := db.evalQueryLimited(ctx, q, 2)
	if err != nil {
		return types.Null, err
	}
	if len(res.Cols) != 1 {
		return types.Null, fmt.Errorf("scalar subquery must return one column, got %d", len(res.Cols))
	}
	switch len(res.Rows) {
	case 0:
		return types.Null, nil
	case 1:
		return res.Rows[0][0], nil
	}
	return types.Null, fmt.Errorf("scalar subquery returned more than one row")
}

// likeMatch implements SQL LIKE with % and _ wildcards.
func likeMatch(s, pat string) bool {
	// dynamic programming over pattern and string positions
	return likeRec(s, pat)
}

func likeRec(s, pat string) bool {
	for len(pat) > 0 {
		switch pat[0] {
		case '%':
			for len(pat) > 0 && pat[0] == '%' {
				pat = pat[1:]
			}
			if len(pat) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(s[i:], pat) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s, pat = s[1:], pat[1:]
		default:
			if len(s) == 0 || s[0] != pat[0] {
				return false
			}
			s, pat = s[1:], pat[1:]
		}
	}
	return len(s) == 0
}

func castValue(v types.Value, t sqlast.TypeName) (types.Value, error) {
	if v.IsNull() {
		return types.Null, nil
	}
	switch t.Kind() {
	case types.KindInt:
		return types.NewInt(v.Int()), nil
	case types.KindFloat:
		return types.NewFloat(v.Float()), nil
	case types.KindString:
		s := v.Text()
		if t.Length > 0 && len(s) > t.Length && (t.Base == "CHAR" || t.Base == "VARCHAR") {
			s = s[:t.Length]
		}
		return types.NewString(s), nil
	case types.KindDate:
		switch v.Kind {
		case types.KindDate:
			return v, nil
		case types.KindString:
			d, err := types.ParseDate(strings.TrimSpace(v.S))
			if err != nil {
				return types.Null, err
			}
			return types.NewDate(d), nil
		case types.KindInt:
			return types.NewDate(v.I), nil
		}
		return types.Null, fmt.Errorf("cannot cast %s to DATE", v.Kind)
	case types.KindBool:
		return types.NewBool(types.TriboolFromValue(v) == types.True), nil
	}
	return types.Null, fmt.Errorf("unsupported cast target %s", t.SQL())
}
