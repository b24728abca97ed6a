package taupsm

import (
	"fmt"
	"testing"

	"taupsm/internal/sqlparser"
)

// translationCached reports whether the translation cache holds a
// valid entry for the single statement q.
func translationCached(t *testing.T, db *DB, q string) bool {
	t.Helper()
	stmts, err := sqlparser.ParseScript(q)
	if err != nil || len(stmts) != 1 {
		t.Fatalf("parse %q: %v", q, err)
	}
	return db.lookupTranslation(db.translationKey(stmts[0])) != nil
}

// Repeated execution of the same sequenced statement hits the
// translation and constant-period caches. The translation cache admits
// a text on its second execution: no entry after the first run, an
// entry after the second, a hit on the third. DML on a referenced
// table invalidates both caches (the constant periods and the Auto
// heuristic read the rows), and DDL invalidates the translation cache.
func TestCachesHitAndInvalidate(t *testing.T) {
	db := paperDB(t)
	db.SetStrategy(Max)
	m := db.Metrics()
	const q = `VALIDTIME (DATE '2010-01-01', DATE '2011-01-01') SELECT title FROM item`

	run := func() {
		t.Helper()
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}

	run() // cold: miss, text only remembered
	if hits, misses := m.Value("stratum.cache.translation_hits_total"), m.Value("stratum.cache.translation_misses_total"); hits != 0 || misses != 1 {
		t.Fatalf("after cold run: translation hits=%d misses=%d, want 0/1", hits, misses)
	}
	if translationCached(t, db, q) {
		t.Fatal("translation cached after one run; admission is on the second")
	}
	if hits, misses := m.Value("stratum.cache.cp_hits_total"), m.Value("stratum.cache.cp_misses_total"); hits != 0 || misses != 1 {
		t.Fatalf("after cold run: cp hits=%d misses=%d, want 0/1", hits, misses)
	}

	run() // second run: miss + fill
	if hits, misses := m.Value("stratum.cache.translation_hits_total"), m.Value("stratum.cache.translation_misses_total"); hits != 0 || misses != 2 {
		t.Fatalf("after second run: translation hits=%d misses=%d, want 0/2", hits, misses)
	}
	if !translationCached(t, db, q) {
		t.Fatal("translation not cached after its second run")
	}

	run() // warm: both hit
	if hits := m.Value("stratum.cache.translation_hits_total"); hits != 1 {
		t.Fatalf("translation hits = %d, want 1", hits)
	}
	if hits := m.Value("stratum.cache.cp_hits_total"); hits != 2 {
		t.Fatalf("cp hits = %d, want 2", hits)
	}

	// DML on the referenced table: both caches must recompute. The text
	// is already known, so the recomputed translation is cached at once.
	db.MustExec(`NONSEQUENCED VALIDTIME INSERT INTO item VALUES ('i9', 'New', DATE '2010-02-01', DATE '2010-04-01')`)
	run()
	if misses := m.Value("stratum.cache.translation_misses_total"); misses != 3 {
		t.Fatalf("translation misses after DML = %d, want 3", misses)
	}
	if misses := m.Value("stratum.cache.cp_misses_total"); misses != 2 {
		t.Fatalf("cp misses after DML = %d, want 2", misses)
	}

	// DDL on an unrelated table: the catalog version moved, but the
	// entry's dependency set — the routines, tables, and views the
	// statement can reach — is untouched, so the entry revalidates and
	// re-pins instead of recomputing. The constant periods only depend
	// on the unchanged item table and stay cached too.
	db.MustExec(`CREATE TABLE unrelated (x CHAR(5))`)
	run()
	if hits, misses := m.Value("stratum.cache.translation_hits_total"), m.Value("stratum.cache.translation_misses_total"); hits != 2 || misses != 3 {
		t.Fatalf("after unrelated DDL: translation hits=%d misses=%d, want 2/3 (dep revalidation re-pins)", hits, misses)
	}
	if misses := m.Value("stratum.cache.cp_misses_total"); misses != 2 {
		t.Fatalf("cp misses after DDL = %d, want 2 (data pins still hold)", misses)
	}

	// Dropping the unrelated table moves the version again; the entry
	// keeps re-pinning as long as its own dependencies hold.
	db.MustExec(`DROP TABLE unrelated`)
	run()
	if hits, misses := m.Value("stratum.cache.translation_hits_total"), m.Value("stratum.cache.translation_misses_total"); hits != 3 || misses != 3 {
		t.Fatalf("after unrelated DROP: translation hits=%d misses=%d, want 3/3", hits, misses)
	}
}

// The translation cache's dependency revalidation distinguishes DDL by
// reachability: redefining a routine the statement calls invalidates
// its entry, while creating unrelated objects merely re-pins it.
func TestTranslationCacheDepInvalidation(t *testing.T) {
	db := paperDB(t)
	db.SetStrategy(Max)
	m := db.Metrics()
	db.MustExec(`CREATE FUNCTION twice (n INTEGER) RETURNS INTEGER RETURN n + n`)
	const q = `VALIDTIME (DATE '2010-01-01', DATE '2011-01-01') SELECT twice(2) FROM item`

	run := func() {
		t.Helper()
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}

	run()
	if translationCached(t, db, q) {
		t.Fatal("translation cached after one run; admission is on the second")
	}
	run()
	if !translationCached(t, db, q) {
		t.Fatal("translation not cached after its second run")
	}
	run()
	if hits, misses := m.Value("stratum.cache.translation_hits_total"), m.Value("stratum.cache.translation_misses_total"); hits != 1 || misses != 2 {
		t.Fatalf("warmup: translation hits=%d misses=%d, want 1/2", hits, misses)
	}

	// Unrelated routine DDL: version bump, dependency set unchanged.
	db.MustExec(`CREATE FUNCTION thrice (n INTEGER) RETURNS INTEGER RETURN n * 3`)
	run()
	if hits, misses := m.Value("stratum.cache.translation_hits_total"), m.Value("stratum.cache.translation_misses_total"); hits != 2 || misses != 2 {
		t.Fatalf("after unrelated routine DDL: hits=%d misses=%d, want 2/2", hits, misses)
	}

	// Redefining the called routine: the original name is in the
	// dependency set (even though the translation calls a clone), so the
	// stale entry must not survive.
	db.MustExec(`CREATE OR REPLACE FUNCTION twice (n INTEGER) RETURNS INTEGER RETURN n * 3`)
	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if misses := m.Value("stratum.cache.translation_misses_total"); misses != 3 {
		t.Fatalf("translation misses after redefining twice = %d, want 3", misses)
	}
	if len(res.Rows) == 0 || res.Rows[0][len(res.Rows[0])-1].String() != "6" {
		t.Fatalf("redefined routine result = %v, want trailing column 6", res.Rows)
	}
}

// The MAX point predicates (table.begin <= cp.begin < table.end) run
// through the storage layer's sorted-interval index: executing a
// sequenced MAX query must record interval probes.
func TestMaxSlicingUsesIntervalIndex(t *testing.T) {
	db := paperDB(t)
	db.SetStrategy(Max)
	m := db.Metrics()
	if _, err := db.Query(`VALIDTIME (DATE '2010-01-01', DATE '2011-01-01') SELECT title FROM item`); err != nil {
		t.Fatal(err)
	}
	if probes := m.Value("engine.interval_probes_total"); probes == 0 {
		t.Fatal("engine.interval_probes_total = 0; MAX slicing scanned instead of probing the interval index")
	}
}

// The two strategies cache independently: the translation key includes
// the strategy setting, so each strategy's entry is admitted on that
// strategy's own second run.
func TestTranslationCacheKeyedByStrategy(t *testing.T) {
	db := paperDB(t)
	m := db.Metrics()
	const q = `VALIDTIME (DATE '2010-01-01', DATE '2011-01-01') SELECT title FROM item`
	query := func(s Strategy) {
		t.Helper()
		db.SetStrategy(s)
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}

	query(Max)
	query(PerStatement)
	if misses := m.Value("stratum.cache.translation_misses_total"); misses != 2 {
		t.Fatalf("translation misses = %d, want 2 (one per strategy)", misses)
	}
	query(Max) // MAX's second run: admitted, not yet a hit
	if hits := m.Value("stratum.cache.translation_hits_total"); hits != 0 {
		t.Fatalf("translation hits = %d after MAX's second run, want 0", hits)
	}
	if !translationCached(t, db, q) {
		t.Fatal("MAX translation not cached after its second run")
	}
	db.SetStrategy(PerStatement)
	if translationCached(t, db, q) {
		t.Fatal("PERST translation cached after one PERST run; the MAX runs must not count")
	}
	query(PerStatement) // PERST's second run: admitted
	query(Max)
	if hits := m.Value("stratum.cache.translation_hits_total"); hits != 1 {
		t.Fatalf("translation hits = %d, want 1 (MAX entry still valid)", hits)
	}
	query(PerStatement)
	if hits := m.Value("stratum.cache.translation_hits_total"); hits != 2 {
		t.Fatalf("translation hits = %d, want 2 (PERST entry cached independently)", hits)
	}
}

// A cached sequenced translation must not outlive a change in what a
// referenced name resolves to, even when the change is confined to
// temporary tables and so leaves the durable schema alone: a plain
// temp table recreated as a valid-time one, or a valid-time temp table
// shadowing a view. After either change the warm result must equal the
// result of a cold database under every strategy.
func TestTranslationCacheFollowsTempTableChurn(t *testing.T) {
	const (
		emp = `CREATE TABLE emp (name CHAR(10), dept CHAR(10)) AS VALIDTIME;
NONSEQUENCED VALIDTIME INSERT INTO emp VALUES ('ann', 'sales', DATE '2010-01-01', DATE '2011-01-01');`
		temporalD = `CREATE TEMPORARY TABLE d (dept CHAR(10), floor INTEGER) AS VALIDTIME;
NONSEQUENCED VALIDTIME INSERT INTO d VALUES ('sales', 1, DATE '2010-03-01', DATE '2010-04-01');`
		q = `VALIDTIME (DATE '2010-01-01', DATE '2011-01-01') SELECT e.name, d.floor FROM emp AS e, d WHERE e.dept = d.dept`
	)
	cases := []struct {
		name, before, change string
	}{
		{"temp table recreated as valid-time",
			`CREATE TEMPORARY TABLE d (dept CHAR(10), floor INTEGER); INSERT INTO d VALUES ('sales', 1);`,
			`DROP TABLE d; ` + temporalD},
		{"valid-time temp table shadows view",
			`CREATE TABLE floors (dept CHAR(10), floor INTEGER); INSERT INTO floors VALUES ('sales', 1);
CREATE VIEW d AS SELECT dept, floor FROM floors;`,
			temporalD},
	}
	for _, tc := range cases {
		for _, s := range []Strategy{Max, PerStatement, Auto} {
			t.Run(tc.name+"/"+s.String(), func(t *testing.T) {
				open := func() *DB {
					db := Open()
					db.SetNow(2010, 6, 15)
					db.SetStrategy(s)
					db.MustExec(emp + tc.before)
					return db
				}
				query := func(db *DB) string {
					t.Helper()
					res, err := db.Query(q)
					if err != nil {
						t.Fatal(err)
					}
					return fmt.Sprint(res.Rows)
				}

				warm := open()
				first := query(warm)
				for range 2 {
					if got := query(warm); got != first {
						t.Fatalf("repeat run = %s, want %s", got, first)
					}
				}
				if !translationCached(t, warm, q) {
					t.Fatal("translation not cached after three runs")
				}
				warm.MustExec(tc.change)

				cold := open()
				cold.MustExec(tc.change)
				if got, want := query(warm), query(cold); got != want {
					t.Fatalf("warm result after the change = %s, cold = %s", got, want)
				}
			})
		}
	}
}
