package taupsm_test

// One benchmark family per evaluation artifact of the paper:
//
//	BenchmarkFig12  - runtime vs temporal context, DS1-SMALL (Fig. 12)
//	BenchmarkFig13  - runtime vs temporal context, DS1-LARGE (Fig. 13)
//	BenchmarkFig14  - runtime vs dataset size (Fig. 14)
//	BenchmarkFig15  - runtime vs data characteristics (Fig. 15)
//	BenchmarkTabLoC - translation cost for the SVII-B code-expansion table
//	BenchmarkConstantPeriods - ablation: native cp vs the Figure-8 SQL
//
// Sub-benchmarks are named query/x-axis/strategy so `go test -bench
// Fig12/q2` reproduces one series. The LARGE-dataset figures bench a
// representative query subset by default; set TAUBENCH_FULL=1 for all
// sixteen (or use `go run ./cmd/taubench -exp figNN`, which always
// sweeps everything and prints the figure's table).

import (
	"fmt"
	"os"
	"testing"

	"taupsm"
	"taupsm/internal/taubench"
)

var runnerCache = map[string]*taubench.Runner{}

func getBenchRunner(b *testing.B, spec taubench.Spec) *taubench.Runner {
	b.Helper()
	key := spec.Name + "/" + spec.Size.String()
	if r, ok := runnerCache[key]; ok {
		return r
	}
	r, err := taubench.NewRunner(spec)
	if err != nil {
		b.Fatalf("load %s: %v", key, err)
	}
	runnerCache[key] = r
	return r
}

func fullSweep() bool { return os.Getenv("TAUBENCH_FULL") != "" }

// benchQueries returns the queries to bench: all sixteen for small
// datasets or under TAUBENCH_FULL, otherwise a representative subset
// covering the paper's classes (B, A/per-period-cursor, C, collection).
func benchQueries(small bool) []taubench.Query {
	if small || fullSweep() {
		return taubench.Queries()
	}
	var out []taubench.Query
	for _, name := range []string{"q2", "q7", "q17", "q19"} {
		q, _ := taubench.QueryByName(name)
		out = append(out, q)
	}
	return out
}

func strategyName(s taupsm.Strategy) string {
	if s == taupsm.Max {
		return "MAX"
	}
	return "PERST"
}

func benchSequenced(b *testing.B, r *taubench.Runner, q taubench.Query, s taupsm.Strategy, ctx int) {
	if s == taupsm.PerStatement && !q.PerstOK {
		b.Skip("per-statement slicing does not apply (non-nested FETCH)")
	}
	var rows int
	for i := 0; i < b.N; i++ {
		m := r.RunSequenced(q, s, ctx)
		if m.Err != nil {
			b.Fatal(m.Err)
		}
		rows = m.Rows
	}
	b.ReportMetric(float64(rows), "rows")
}

func contextSweepBench(b *testing.B, spec taubench.Spec, small bool) {
	r := getBenchRunner(b, spec)
	for _, q := range benchQueries(small) {
		for _, ctx := range taubench.ContextLengths {
			for _, s := range []taupsm.Strategy{taupsm.Max, taupsm.PerStatement} {
				name := fmt.Sprintf("%s/%s/%s", q.Name, taubench.ContextLabel(ctx), strategyName(s))
				q, s, ctx := q, s, ctx
				b.Run(name, func(b *testing.B) { benchSequenced(b, r, q, s, ctx) })
			}
		}
	}
}

// BenchmarkFig12 regenerates the Figure 12 series: every query at
// every context length on DS1-SMALL under both strategies.
func BenchmarkFig12(b *testing.B) {
	contextSweepBench(b, taubench.DS1(taubench.Small), true)
}

// BenchmarkFig13 is the same sweep on DS1-LARGE.
func BenchmarkFig13(b *testing.B) {
	contextSweepBench(b, taubench.DS1(taubench.Large), false)
}

// BenchmarkFig14 regenerates the scalability series: SMALL, MEDIUM and
// LARGE at the one-month context.
func BenchmarkFig14(b *testing.B) {
	for _, size := range []taubench.Size{taubench.Small, taubench.Medium, taubench.Large} {
		r := getBenchRunner(b, taubench.DS1(size))
		for _, q := range benchQueries(size == taubench.Small) {
			for _, s := range []taupsm.Strategy{taupsm.Max, taupsm.PerStatement} {
				name := fmt.Sprintf("%s/%s/%s", q.Name, size, strategyName(s))
				q, s := q, s
				b.Run(name, func(b *testing.B) { benchSequenced(b, r, q, s, 30) })
			}
		}
	}
}

// BenchmarkFig15 regenerates the data-characteristics series: DS1
// (weekly/uniform), DS2 (weekly/Gaussian hot spots) and DS3 (daily)
// at SMALL and the one-month context.
func BenchmarkFig15(b *testing.B) {
	for _, spec := range []taubench.Spec{
		taubench.DS1(taubench.Small), taubench.DS2(taubench.Small), taubench.DS3(taubench.Small),
	} {
		r := getBenchRunner(b, spec)
		for _, q := range benchQueries(true) {
			for _, s := range []taupsm.Strategy{taupsm.Max, taupsm.PerStatement} {
				name := fmt.Sprintf("%s/%s/%s", q.Name, spec.Name, strategyName(s))
				q, s := q, s
				b.Run(name, func(b *testing.B) { benchSequenced(b, r, q, s, 30) })
			}
		}
	}
}

// BenchmarkTabLoC measures the source-to-source translation itself
// (the work behind the SVII-B code-expansion table): all sixteen
// queries through each strategy.
func BenchmarkTabLoC(b *testing.B) {
	r := getBenchRunner(b, taubench.DS1(taubench.Small))
	for _, s := range []taupsm.Strategy{taupsm.Max, taupsm.PerStatement} {
		s := s
		b.Run(strategyName(s), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := taubench.CodeExpansion(r.DB); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConstantPeriods is the design-choice ablation called out in
// DESIGN.md: MAX slicing with the stratum's native constant-period
// computation versus executing the paper's Figure-8 SQL (quadratic
// self-join with NOT EXISTS).
func BenchmarkConstantPeriods(b *testing.B) {
	r := getBenchRunner(b, taubench.DS1(taubench.Small))
	q, _ := taubench.QueryByName("q2")
	b.Run("native", func(b *testing.B) {
		r.DB.UseFigure8SQL = false
		for i := 0; i < b.N; i++ {
			if m := r.RunSequenced(q, taupsm.Max, 30); m.Err != nil {
				b.Fatal(m.Err)
			}
		}
	})
	b.Run("figure8-sql", func(b *testing.B) {
		r.DB.UseFigure8SQL = true
		defer func() { r.DB.UseFigure8SQL = false }()
		for i := 0; i < b.N; i++ {
			if m := r.RunSequenced(q, taupsm.Max, 30); m.Err != nil {
				b.Fatal(m.Err)
			}
		}
	})
}

// BenchmarkCostOrdering is the second design-choice ablation: cheap
// predicates evaluated before stored-routine invocations (on) versus
// textual order (off). With ordering off, MAX-sliced queries invoke the
// routine once per candidate tuple rather than once per satisfying
// tuple.
func BenchmarkCostOrdering(b *testing.B) {
	r := getBenchRunner(b, taubench.DS1(taubench.Small))
	q, _ := taubench.QueryByName("q2")
	for _, off := range []bool{false, true} {
		name := "on"
		if off {
			name = "off"
		}
		off := off
		b.Run(name, func(b *testing.B) {
			r.DB.Engine().DisableCostOrdering = off
			defer func() { r.DB.Engine().DisableCostOrdering = false }()
			for i := 0; i < b.N; i++ {
				if m := r.RunSequenced(q, taupsm.Max, 30); m.Err != nil {
					b.Fatal(m.Err)
				}
			}
		})
	}
}

// BenchmarkHashIndexes ablates the lazily built hash indexes: equality
// probes inside stored functions degrade to full scans without them.
func BenchmarkHashIndexes(b *testing.B) {
	r := getBenchRunner(b, taubench.DS1(taubench.Small))
	q, _ := taubench.QueryByName("q2")
	for _, off := range []bool{false, true} {
		name := "on"
		if off {
			name = "off"
		}
		off := off
		b.Run(name, func(b *testing.B) {
			r.DB.Engine().DisableIndexes = off
			defer func() { r.DB.Engine().DisableIndexes = false }()
			for i := 0; i < b.N; i++ {
				if m := r.RunSequenced(q, taupsm.Max, 30); m.Err != nil {
					b.Fatal(m.Err)
				}
			}
		})
	}
}

// BenchmarkBatchedExecution ablates the shared prepared plan: source
// relations and join hash tables reused across fragment executions.
// The one-year context slices q7 into many constant periods, and q7
// joins three temporal tables, so the plan caches several relations.
func BenchmarkBatchedExecution(b *testing.B) {
	r := getBenchRunner(b, taubench.DS1(taubench.Small))
	q, _ := taubench.QueryByName("q7")
	eng := r.DB.Engine()
	for _, cfg := range []struct {
		name        string
		noPlanReuse bool
	}{
		{"batched", false},
		{"no-plan-reuse", true},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			eng.DisablePlanReuse = cfg.noPlanReuse
			defer func() { eng.DisablePlanReuse = false }()
			for i := 0; i < b.N; i++ {
				if m := r.RunSequenced(q, taupsm.Max, 365); m.Err != nil {
					b.Fatal(m.Err)
				}
			}
		})
	}
}
