package engine

import (
	"fmt"
	"strings"

	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// evalFuncCall dispatches a function invocation: stored routines take
// precedence over builtins, matching a DBMS where user definitions
// shadow library functions of the same name.
func (db *DB) evalFuncCall(ctx *execCtx, fc *sqlast.FuncCall) (types.Value, error) {
	if isAggregate(fc.Name) {
		return types.Null, fmt.Errorf("aggregate %s used outside an aggregation context", fc.Name)
	}
	if r := db.Cat.Routine(fc.Name); r != nil && r.Kind == storage.KindFunction {
		return db.callFunction(ctx, r, fc.Args, false)
	}
	return db.evalBuiltin(ctx, fc)
}

// evalBuiltin evaluates a builtin call interpretively; bound
// expressions resolve the kernel once at bind time (bind.go).
func (db *DB) evalBuiltin(ctx *execCtx, fc *sqlast.FuncCall) (types.Value, error) {
	name := strings.ToUpper(fc.Name)
	if name == "COALESCE" {
		// COALESCE evaluates lazily.
		for _, a := range fc.Args {
			v, err := db.evalExpr(ctx, a)
			if err != nil {
				return types.Null, err
			}
			if !v.IsNull() {
				return v, nil
			}
		}
		return types.Null, nil
	}
	args := make([]types.Value, len(fc.Args))
	for i, a := range fc.Args {
		v, err := db.evalExpr(ctx, a)
		if err != nil {
			return types.Null, err
		}
		args[i] = v
	}
	k := builtinKernels[name]
	if k == nil {
		return types.Null, unknownFunction(fc.Name)
	}
	return k(db, name, args)
}

func unknownFunction(name string) error { return fmt.Errorf("unknown function %s", name) }

// builtinKernel applies one builtin to its evaluated arguments; name is
// the upper-cased function name the call used (aliases share kernels).
type builtinKernel func(db *DB, name string, args []types.Value) (types.Value, error)

func arity(name string, args []types.Value, n int) error {
	if len(args) != n {
		return fmt.Errorf("%s expects %d argument(s), got %d", name, n, len(args))
	}
	return nil
}

// unary wraps a NULL-propagating one-argument builtin.
func unary(f func(v types.Value) (types.Value, error)) builtinKernel {
	return func(_ *DB, name string, args []types.Value) (types.Value, error) {
		if err := arity(name, args, 1); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		return f(args[0])
	}
}

// binaryInstants are the two-argument builtins that bound calls apply
// without building an argument slice; they run on every PERST period
// clamp.
var binaryInstants = map[string]func(a, b types.Value) types.Value{
	"FIRST_INSTANCE": firstInstance,
	"LAST_INSTANCE":  lastInstance,
}

func binary(f func(a, b types.Value) types.Value) builtinKernel {
	return func(_ *DB, name string, args []types.Value) (types.Value, error) {
		if err := arity(name, args, 2); err != nil {
			return types.Null, err
		}
		return f(args[0], args[1]), nil
	}
}

// firstInstance is the earlier of two instants (paper Figure 4).
func firstInstance(a, b types.Value) types.Value {
	if a.IsNull() || b.IsNull() {
		return types.Null
	}
	if c, ok := types.Compare(a, b); ok && c > 0 {
		return b
	}
	return a
}

// lastInstance is the later of two instants (paper Figure 4).
func lastInstance(a, b types.Value) types.Value {
	if a.IsNull() || b.IsNull() {
		return types.Null
	}
	if c, ok := types.Compare(a, b); ok && c < 0 {
		return b
	}
	return a
}

// builtinKernels maps upper-cased builtin names to their kernels.
// COALESCE is absent: it evaluates its arguments lazily, so its callers
// implement it directly.
var builtinKernels map[string]builtinKernel

func init() {
	now := func(db *DB, _ string, _ []types.Value) (types.Value, error) {
		return types.NewDate(db.Now), nil
	}
	upper := unary(func(v types.Value) (types.Value, error) {
		return types.NewString(strings.ToUpper(v.Text())), nil
	})
	lower := unary(func(v types.Value) (types.Value, error) {
		return types.NewString(strings.ToLower(v.Text())), nil
	})
	length := unary(func(v types.Value) (types.Value, error) {
		return types.NewInt(int64(len(v.Text()))), nil
	})
	substr := func(_ *DB, name string, args []types.Value) (types.Value, error) {
		if len(args) != 2 && len(args) != 3 {
			return types.Null, fmt.Errorf("%s expects 2 or 3 arguments", name)
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		s := args[0].Text()
		start := int(args[1].Int()) - 1
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			start = len(s)
		}
		end := len(s)
		if len(args) == 3 {
			if n := int(args[2].Int()); start+n < end {
				end = start + n
			}
		}
		return types.NewString(s[start:end]), nil
	}
	civil := func(part func(y, m, d int) int) builtinKernel {
		return unary(func(v types.Value) (types.Value, error) {
			y, m, d := types.DaysToCivil(v.Int())
			return types.NewInt(int64(part(y, m, d))), nil
		})
	}
	builtinKernels = map[string]builtinKernel{
		"CURRENT_DATE":      now,
		"CURRENT_TIME":      now,
		"CURRENT_TIMESTAMP": now,
		"FIRST_INSTANCE":    binary(firstInstance),
		"LAST_INSTANCE":     binary(lastInstance),
		"UPPER":             upper,
		"UCASE":             upper,
		"LOWER":             lower,
		"LCASE":             lower,
		"LENGTH":            length,
		"CHAR_LENGTH":       length,
		"CHARACTER_LENGTH":  length,
		"TRIM": unary(func(v types.Value) (types.Value, error) {
			return types.NewString(strings.TrimSpace(v.Text())), nil
		}),
		"SUBSTR":    substr,
		"SUBSTRING": substr,
		"ABS": unary(func(v types.Value) (types.Value, error) {
			if v.Kind == types.KindFloat {
				f := v.F
				if f < 0 {
					f = -f
				}
				return types.NewFloat(f), nil
			}
			n := v.Int()
			if n < 0 {
				n = -n
			}
			return types.NewInt(n), nil
		}),
		"MOD": func(_ *DB, name string, args []types.Value) (types.Value, error) {
			if err := arity(name, args, 2); err != nil {
				return types.Null, err
			}
			if args[0].IsNull() || args[1].IsNull() {
				return types.Null, nil
			}
			d := args[1].Int()
			if d == 0 {
				return types.Null, fmt.Errorf("MOD by zero")
			}
			return types.NewInt(args[0].Int() % d), nil
		},
		"NULLIF": func(_ *DB, name string, args []types.Value) (types.Value, error) {
			if err := arity(name, args, 2); err != nil {
				return types.Null, err
			}
			if types.CompareOp("=", args[0], args[1]) == types.True {
				return types.Null, nil
			}
			return args[0], nil
		},
		"YEAR":  civil(func(y, _, _ int) int { return y }),
		"MONTH": civil(func(_, m, _ int) int { return m }),
		"DAY":   civil(func(_, _, d int) int { return d }),
		"DATE": func(_ *DB, name string, args []types.Value) (types.Value, error) {
			if err := arity(name, args, 1); err != nil {
				return types.Null, err
			}
			return castValue(args[0], sqlast.TypeName{Base: "DATE"})
		},
	}
}
