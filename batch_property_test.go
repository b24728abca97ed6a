package taupsm_test

// Correctness property of batched fragment execution: plan reuse is a
// pure execution-strategy change, so over the full 16-query benchmark
// corpus the batched MAX path (shared prepared plan, the default) must
// produce exactly the rows of the unbatched MAX path (plan reuse
// ablated) — same order — under serial and parallel evaluation, and
// the same multiset as PERST slicing and as a database recovered from
// snapshot + WAL.

import (
	"testing"

	"taupsm"
	"taupsm/internal/enginetest"
	"taupsm/internal/taubench"
	"taupsm/internal/wal"
)

func TestBatchedExecutionProperty(t *testing.T) {
	spec, err := taubench.SpecByName("DS1", taubench.Small)
	if err != nil {
		t.Fatal(err)
	}

	mem := taupsm.Open()
	enginetest.LoadCorpus(t, mem, spec)
	// ANALYZE mirrors the benchmark runner's setup.
	mem.MustExec("ANALYZE")

	fs := wal.NewMemFS()
	per, err := taupsm.OpenFS(fs)
	if err != nil {
		t.Fatal(err)
	}
	enginetest.LoadCorpus(t, per, spec)
	if err := per.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	per.Close()
	rec, err := taupsm.OpenFS(fs.CrashImage())
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer rec.Close()
	rec.SetNow(2011, 1, 1)
	rec.MustExec("ANALYZE")

	eng := mem.Engine()
	pairs := 0
	for _, par := range []int{1, 4} {
		mem.SetParallelism(par)
		rec.SetParallelism(par)
		for _, q := range taubench.Queries() {
			sql := taubench.SequencedSQL(q, 30)
			mem.SetStrategy(taupsm.Max)
			rec.SetStrategy(taupsm.Max)

			// Batched, twice: the second run executes against the plan
			// the first one populated.
			cold, err := mem.Query(sql)
			if err != nil {
				t.Fatalf("%s par=%d batched cold: %v", q.Name, par, err)
			}
			warm, err := mem.Query(sql)
			if err != nil {
				t.Fatalf("%s par=%d batched warm: %v", q.Name, par, err)
			}
			want := enginetest.RenderRows(cold)
			if g := enginetest.RenderRows(warm); g != want {
				t.Errorf("%s par=%d: warm batched run diverges from cold\n--- cold\n%s--- warm\n%s",
					q.Name, par, want, g)
			}

			// Unbatched: plan reuse ablated.
			eng.DisablePlanReuse = true
			plain, err := mem.Query(sql)
			eng.DisablePlanReuse = false
			if err != nil {
				t.Fatalf("%s par=%d unbatched: %v", q.Name, par, err)
			}
			if g := enginetest.RenderRows(plain); g != want {
				t.Errorf("%s par=%d: unbatched run diverges from batched\n--- batched\n%s--- unbatched\n%s",
					q.Name, par, want, g)
			}

			// Recovered database, batched path.
			recovered, err := rec.Query(sql)
			if err != nil {
				t.Fatalf("%s par=%d recovered: %v", q.Name, par, err)
			}
			if g := enginetest.RenderRows(recovered); g != want {
				t.Errorf("%s par=%d: recovered batched run diverges\n--- in-memory\n%s--- recovered\n%s",
					q.Name, par, want, g)
			}

			// PERST computes the same information by an entirely
			// different plan shape (per-statement cursors), and the two
			// strategies fragment result periods differently — MAX one
			// row per constant period, PERST per stored fragment — so
			// the row-for-row comparison is on coalesced results, where
			// both converge to the same canonical periods (order still
			// differs; compare sorted).
			if q.PerstOK {
				mem.CoalesceResults = true
				maxCoal, err := mem.Query(sql)
				if err != nil {
					t.Fatalf("%s par=%d max coalesced: %v", q.Name, par, err)
				}
				mem.SetStrategy(taupsm.PerStatement)
				perst, err := mem.Query(sql)
				mem.CoalesceResults = false
				if err != nil {
					t.Fatalf("%s par=%d perst: %v", q.Name, par, err)
				}
				if w, g := enginetest.SortedRows(maxCoal), enginetest.SortedRows(perst); g != w {
					t.Errorf("%s par=%d: PERST diverges from batched MAX (coalesced)\n--- MAX\n%s\n--- PERST\n%s",
						q.Name, par, w, g)
				}
			}
			pairs++
		}
	}
	if pairs < 32 {
		t.Fatalf("corpus ran only %d query/parallelism pairs", pairs)
	}
	if mem.Metrics().Value("engine.plan_reuse_hits_total") == 0 {
		t.Fatal("no execution served a relation from the prepared plan; the property compared nothing")
	}
	t.Logf("batched property: %d pairs agree; plan_reuse_hits=%d",
		pairs, mem.Metrics().Value("engine.plan_reuse_hits_total"))
}
