package engine

import (
	"strings"

	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// boundExpr is a scalar expression compiled against the row layout of
// the site that evaluates it. A column of the layout is read as
// row[entry][col]; ctx.scope is the scope enclosing the site (it does
// not contain the site's row). Bound forms are immutable and may be
// shared by concurrent sessions: they capture nothing but the AST,
// resolved positions and routines, and read the session from ctx.db.
type boundExpr func(ctx *execCtx, row [][]types.Value) (types.Value, error)

// binder compiles expressions against one site layout. Column names
// resolve with the rules rowScope.lookup applies to a scope level over
// the same layout; names outside it resolve at run time through the
// enclosing scope chain, then the PSM variables, exactly as evalExpr
// does. A name that is an error at the site (a missing column of a
// local alias, an ambiguous unqualified name) compiles to a closure
// raising that error and is also recorded in err, so a plan can report
// it before touching any data.
type binder struct {
	db     *DB
	layout []entryMeta
	// pin records the routine each call name resolved to; nil when the
	// bound form lives only for one execution.
	pin *storage.Pin
	err error
}

// bindAll binds each expression against layout.
func (b *binder) bindAll(es []sqlast.Expr) []boundExpr {
	out := make([]boundExpr, len(es))
	for i, e := range es {
		out[i] = b.bind(e)
	}
	return out
}

// routine resolves a call name once per plan, pinning the outcome
// (absence included) so a later CREATE or DROP rebuilds the plan.
func (b *binder) routine(name string) *storage.Routine {
	if b.pin != nil {
		return b.pin.Routine(b.db.Cat, name)
	}
	return b.db.Cat.Routine(name)
}

func (b *binder) bind(e sqlast.Expr) boundExpr {
	switch x := e.(type) {
	case *sqlast.Literal:
		v := x.Val
		return func(*execCtx, [][]types.Value) (types.Value, error) { return v, nil }
	case *sqlast.ColumnRef:
		return b.bindColumn(x)
	case *sqlast.BinaryExpr:
		return b.bindBinary(x)
	case *sqlast.UnaryExpr:
		op, fx := x.Op, b.bind(x.X)
		if op == "NOT" {
			return func(ctx *execCtx, row [][]types.Value) (types.Value, error) {
				v, err := fx(ctx, row)
				if err != nil {
					return types.Null, err
				}
				return types.TriboolFromValue(v).Not().Value(), nil
			}
		}
		return func(ctx *execCtx, row [][]types.Value) (types.Value, error) {
			v, err := fx(ctx, row)
			if err != nil {
				return types.Null, err
			}
			return unaryValue(op, v)
		}
	case *sqlast.IsNullExpr:
		fx, not := b.bind(x.X), x.Not
		return func(ctx *execCtx, row [][]types.Value) (types.Value, error) {
			v, err := fx(ctx, row)
			if err != nil {
				return types.Null, err
			}
			return types.NewBool(v.IsNull() != not), nil
		}
	case *sqlast.BetweenExpr:
		fx, flo, fhi, not := b.bind(x.X), b.bind(x.Lo), b.bind(x.Hi), x.Not
		return func(ctx *execCtx, row [][]types.Value) (types.Value, error) {
			v, err := fx(ctx, row)
			if err != nil {
				return types.Null, err
			}
			lo, err := flo(ctx, row)
			if err != nil {
				return types.Null, err
			}
			hi, err := fhi(ctx, row)
			if err != nil {
				return types.Null, err
			}
			return betweenValue(v, lo, hi, not), nil
		}
	case *sqlast.InExpr:
		if x.Sub != nil {
			return b.delegate(e)
		}
		fx, list, not := b.bind(x.X), b.bindAll(x.List), x.Not
		return func(ctx *execCtx, row [][]types.Value) (types.Value, error) {
			v, err := fx(ctx, row)
			if err != nil {
				return types.Null, err
			}
			in := newInAcc(v)
			for _, fl := range list {
				lv, err := fl(ctx, row)
				if err != nil {
					return types.Null, err
				}
				in.add(lv)
			}
			return in.value(not), nil
		}
	case *sqlast.LikeExpr:
		fx, fp, not := b.bind(x.X), b.bind(x.Pattern), x.Not
		return func(ctx *execCtx, row [][]types.Value) (types.Value, error) {
			v, err := fx(ctx, row)
			if err != nil {
				return types.Null, err
			}
			pat, err := fp(ctx, row)
			if err != nil {
				return types.Null, err
			}
			return likeValue(v, pat, not), nil
		}
	case *sqlast.CaseExpr:
		return b.bindCase(x)
	case *sqlast.CastExpr:
		fx, t := b.bind(x.X), x.Type
		return func(ctx *execCtx, row [][]types.Value) (types.Value, error) {
			v, err := fx(ctx, row)
			if err != nil {
				return types.Null, err
			}
			return castValue(v, t)
		}
	case *sqlast.FuncCall:
		return b.bindCall(x)
	}
	// Subqueries (and anything unknown) stay interpretive.
	return b.delegate(e)
}

// delegate evaluates e with evalExpr, binding the site's row in a
// scope for this node only: the node needs the row as a name scope
// (subqueries, aggregates) rather than as positions.
func (b *binder) delegate(e sqlast.Expr) boundExpr {
	layout := b.layout
	return func(ctx *execCtx, row [][]types.Value) (types.Value, error) {
		return ctx.db.evalExpr(ctx.withScope(bindScope(ctx.scope, layout, row)), e)
	}
}

func (b *binder) bindColumn(x *sqlast.ColumnRef) boundExpr {
	e, c, err := resolveColumn(b.layout, x.Table, x.Column)
	if err != nil {
		if b.err == nil {
			b.err = err
		}
		return func(*execCtx, [][]types.Value) (types.Value, error) { return types.Null, err }
	}
	if e >= 0 {
		return func(_ *execCtx, row [][]types.Value) (types.Value, error) { return row[e][c], nil }
	}
	tbl, col, key := x.Table, x.Column, strings.ToLower(x.Column)
	return func(ctx *execCtx, _ [][]types.Value) (types.Value, error) {
		return resolveOuter(ctx, tbl, col, key)
	}
}

func (b *binder) bindBinary(x *sqlast.BinaryExpr) boundExpr {
	fl, fr, op := b.bind(x.L), b.bind(x.R), x.Op
	switch op {
	case "AND":
		return func(ctx *execCtx, row [][]types.Value) (types.Value, error) {
			l, err := fl(ctx, row)
			if err != nil {
				return types.Null, err
			}
			lt := types.TriboolFromValue(l)
			if lt == types.False {
				return types.NewBool(false), nil
			}
			r, err := fr(ctx, row)
			if err != nil {
				return types.Null, err
			}
			return lt.And(types.TriboolFromValue(r)).Value(), nil
		}
	case "OR":
		return func(ctx *execCtx, row [][]types.Value) (types.Value, error) {
			l, err := fl(ctx, row)
			if err != nil {
				return types.Null, err
			}
			lt := types.TriboolFromValue(l)
			if lt == types.True {
				return types.NewBool(true), nil
			}
			r, err := fr(ctx, row)
			if err != nil {
				return types.Null, err
			}
			return lt.Or(types.TriboolFromValue(r)).Value(), nil
		}
	case "=", "<>", "<", "<=", ">", ">=":
		return func(ctx *execCtx, row [][]types.Value) (types.Value, error) {
			l, err := fl(ctx, row)
			if err != nil {
				return types.Null, err
			}
			r, err := fr(ctx, row)
			if err != nil {
				return types.Null, err
			}
			return types.CompareOp(op, l, r).Value(), nil
		}
	}
	return func(ctx *execCtx, row [][]types.Value) (types.Value, error) {
		l, err := fl(ctx, row)
		if err != nil {
			return types.Null, err
		}
		r, err := fr(ctx, row)
		if err != nil {
			return types.Null, err
		}
		return types.Arith(op, l, r)
	}
}

func (b *binder) bindCase(x *sqlast.CaseExpr) boundExpr {
	var operand, els boundExpr
	if x.Operand != nil {
		operand = b.bind(x.Operand)
	}
	whens := make([]boundExpr, len(x.Whens))
	thens := make([]boundExpr, len(x.Whens))
	for i, w := range x.Whens {
		whens[i], thens[i] = b.bind(w.When), b.bind(w.Then)
	}
	if x.Else != nil {
		els = b.bind(x.Else)
	}
	return func(ctx *execCtx, row [][]types.Value) (types.Value, error) {
		var op types.Value
		if operand != nil {
			v, err := operand(ctx, row)
			if err != nil {
				return types.Null, err
			}
			op = v
		}
		for i, fw := range whens {
			wv, err := fw(ctx, row)
			if err != nil {
				return types.Null, err
			}
			var hit bool
			if operand != nil {
				hit = types.CompareOp("=", op, wv) == types.True
			} else {
				hit = types.TriboolFromValue(wv) == types.True
			}
			if hit {
				return thens[i](ctx, row)
			}
		}
		if els != nil {
			return els(ctx, row)
		}
		return types.Null, nil
	}
}

// bindCall decides once whether a call is a stored function or a
// builtin (stored functions shadow builtins, as in evalFuncCall) and
// records the decision in the plan's pin.
func (b *binder) bindCall(fc *sqlast.FuncCall) boundExpr {
	if isAggregate(fc.Name) {
		// Valid only where evalGrouped supplies aggregate values.
		return b.delegate(fc)
	}
	args := b.bindAll(fc.Args)
	if r := b.routine(fc.Name); r != nil && r.Kind == storage.KindFunction {
		return func(ctx *execCtx, row [][]types.Value) (types.Value, error) {
			return ctx.db.callBound(ctx, r, args, row, false)
		}
	}
	name := strings.ToUpper(fc.Name)
	if name == "COALESCE" {
		return func(ctx *execCtx, row [][]types.Value) (types.Value, error) {
			for _, fa := range args {
				v, err := fa(ctx, row)
				if err != nil {
					return types.Null, err
				}
				if !v.IsNull() {
					return v, nil
				}
			}
			return types.Null, nil
		}
	}
	if f := binaryInstants[name]; f != nil && len(args) == 2 {
		fa, fb := args[0], args[1]
		return func(ctx *execCtx, row [][]types.Value) (types.Value, error) {
			a, err := fa(ctx, row)
			if err != nil {
				return types.Null, err
			}
			b, err := fb(ctx, row)
			if err != nil {
				return types.Null, err
			}
			return f(a, b), nil
		}
	}
	k := builtinKernels[name]
	orig := fc.Name
	return func(ctx *execCtx, row [][]types.Value) (types.Value, error) {
		vals, err := evalArgs(ctx, args, row)
		if err != nil {
			return types.Null, err
		}
		if k == nil {
			return types.Null, unknownFunction(orig)
		}
		return k(ctx.db, name, vals)
	}
}

func evalArgs(ctx *execCtx, args []boundExpr, row [][]types.Value) ([]types.Value, error) {
	vals := make([]types.Value, len(args))
	for i, fa := range args {
		v, err := fa(ctx, row)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vals, nil
}

// filter is a conjunction bound against one site layout: conj[i] is
// the conjunct (identity matters to the prepared cache), eval[i] its
// bound form.
type filter struct {
	conj []*conjunct
	eval []boundExpr
}

// bindFilter binds cs against b's layout.
func (b *binder) bindFilter(cs []*conjunct) filter {
	f := filter{conj: cs, eval: make([]boundExpr, len(cs))}
	for i, c := range cs {
		f.eval[i] = b.bind(c.expr)
	}
	return f
}

// pass reports whether row satisfies every conjunct but skip (-1 for
// none).
func (f filter) pass(ctx *execCtx, row [][]types.Value, skip int) (bool, error) {
	for i, ev := range f.eval {
		if i == skip {
			continue
		}
		v, err := ev(ctx, row)
		if err != nil {
			return false, err
		}
		if types.TriboolFromValue(v) != types.True {
			return false, nil
		}
	}
	return true, nil
}

// subset returns the conjuncts of f selected by keep, with their bound
// forms.
func (f filter) subset(keep func(*conjunct) bool) filter {
	var out filter
	for i, c := range f.conj {
		if keep(c) {
			out.conj = append(out.conj, c)
			out.eval = append(out.eval, f.eval[i])
		}
	}
	return out
}

// bindTableFunc resolves a FROM-clause table function's routine and
// binds its arguments against b's layout.
func (b *binder) bindTableFunc(tf *sqlast.TableFunc) *tfCall {
	return &tfCall{tf: tf, r: b.routine(tf.Call.Name), args: b.bindAll(tf.Call.Args)}
}
