package engine

import (
	"testing"

	"taupsm/internal/sqlast"
	"taupsm/internal/types"
)

// exprGen derives an expression tree, and the values it is evaluated
// over, from fuzz input bytes; exhausted input reads as zeros.
type exprGen struct {
	data []byte
	pos  int
}

func (g *exprGen) next() int {
	if g.pos >= len(g.data) {
		return 0
	}
	b := g.data[g.pos]
	g.pos++
	return int(b)
}

func (g *exprGen) value() types.Value {
	switch g.next() % 7 {
	case 0:
		return types.Null
	case 1:
		return types.NewInt(int64(g.next()%5) - 1)
	case 2:
		return types.NewString([]string{"", "a", "ab", "b%", "a_"}[g.next()%5])
	case 3:
		return types.NewBool(g.next()%2 == 0)
	case 4:
		return types.NewDate(int64(14600 + g.next()%4))
	case 5:
		return types.NewFloat(float64(g.next()%7) / 2)
	}
	return types.NewInt(int64(g.next() % 3))
}

// The names cover every resolution outcome over the fuzz layout:
// local (y, a.x, b.z), ambiguous (x), missing in a local alias (a.q),
// outer (w, o.x, o.w), unknown alias (c.x), PSM variable (v), and
// neither (q).
var fuzzNames = [][2]string{
	{"", "x"}, {"", "y"}, {"", "z"}, {"a", "x"}, {"b", "x"}, {"a", "y"}, {"B", "Z"},
	{"", "w"}, {"o", "w"}, {"o", "x"}, {"", "v"}, {"", "q"}, {"a", "q"}, {"c", "x"},
}

func (g *exprGen) expr(depth int) sqlast.Expr {
	k := g.next() % 13
	if depth <= 0 || k < 2 {
		if k%2 == 0 {
			n := fuzzNames[g.next()%len(fuzzNames)]
			return &sqlast.ColumnRef{Table: n[0], Column: n[1]}
		}
		return &sqlast.Literal{Val: g.value()}
	}
	d := depth - 1
	switch k {
	case 2:
		return &sqlast.BinaryExpr{Op: []string{"AND", "OR"}[g.next()%2], L: g.expr(d), R: g.expr(d)}
	case 3:
		return &sqlast.BinaryExpr{Op: []string{"=", "<>", "<", "<=", ">", ">="}[g.next()%6], L: g.expr(d), R: g.expr(d)}
	case 4:
		return &sqlast.BinaryExpr{Op: []string{"+", "-", "*", "/"}[g.next()%4], L: g.expr(d), R: g.expr(d)}
	case 5:
		return &sqlast.UnaryExpr{Op: []string{"NOT", "-"}[g.next()%2], X: g.expr(d)}
	case 6:
		return &sqlast.IsNullExpr{X: g.expr(d), Not: g.next()%2 == 0}
	case 7:
		return &sqlast.BetweenExpr{X: g.expr(d), Lo: g.expr(d), Hi: g.expr(d), Not: g.next()%2 == 0}
	case 8:
		in := &sqlast.InExpr{X: g.expr(d), Not: g.next()%2 == 0}
		for n := 1 + g.next()%3; n > 0; n-- {
			in.List = append(in.List, g.expr(d))
		}
		return in
	case 9:
		c := &sqlast.CaseExpr{}
		if g.next()%2 == 0 {
			c.Operand = g.expr(d)
		}
		for n := 1 + g.next()%2; n > 0; n-- {
			c.Whens = append(c.Whens, sqlast.WhenClause{When: g.expr(d), Then: g.expr(d)})
		}
		if g.next()%2 == 0 {
			c.Else = g.expr(d)
		}
		return c
	case 10:
		return &sqlast.LikeExpr{X: g.expr(d), Pattern: g.expr(d), Not: g.next()%2 == 0}
	case 11:
		return &sqlast.FuncCall{Name: []string{"FIRST_INSTANCE", "last_instance"}[g.next()%2], Args: []sqlast.Expr{g.expr(d), g.expr(d)}}
	}
	return &sqlast.FuncCall{Name: "COALESCE", Args: []sqlast.Expr{g.expr(d), g.expr(d)}}
}

// FuzzBoundEval is the differential check of bound evaluation: an
// expression bound against a site layout and evaluated over a row
// gives exactly what evalExpr gives over the equivalent rowScope chain
// — the same value or the same error text. The layout has two entries
// sharing a column name; one outer scope level and one PSM frame sit
// behind it, with variables that columns shadow.
func FuzzBoundEval(f *testing.F) {
	f.Add([]byte{2, 0, 0, 1, 3, 4, 1})
	f.Add([]byte{9, 0, 3, 0, 2, 1, 0, 10, 1, 0, 7})
	f.Add([]byte{7, 0, 1, 0, 0, 2, 0, 4, 1, 1})
	f.Add([]byte{8, 1, 0, 22, 3, 0, 9, 1, 5, 0, 2})
	f.Add([]byte{11, 2, 0, 11, 1, 0, 0, 7, 0, 13})
	db := New()
	layout := []entryMeta{{alias: "a", cols: []string{"x", "y"}}, {alias: "b", cols: []string{"X", "z"}}}
	outerMetas := []entryMeta{{alias: "o", cols: []string{"x", "w"}}}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &exprGen{data: data}
		e := g.expr(4)
		row := [][]types.Value{{g.value(), g.value()}, {g.value(), g.value()}}
		outer := bindScope(nil, outerMetas, [][]types.Value{{g.value(), g.value()}})
		frame := newFrame(nil)
		frame.setVal("v", g.value())
		frame.setVal("y", g.value())
		ctx := &execCtx{db: db, vars: frame, scope: outer}

		b := &binder{db: db, layout: layout}
		got, gerr := b.bind(e)(ctx, row)
		want, werr := db.evalExpr(ctx.withScope(bindScope(outer, layout, row)), e)
		if (gerr != nil) != (werr != nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("%s: bound error %v, evalExpr error %v", renderSQL(e), gerr, werr)
		}
		if gerr == nil && (got.Kind != want.Kind || got.HashKey() != want.HashKey()) {
			t.Fatalf("%s: bound %v (%s), evalExpr %v (%s)", renderSQL(e), got, got.Kind, want, want.Kind)
		}
	})
}
