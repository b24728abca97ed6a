package engine

import (
	"fmt"
	"testing"
)

// Temp-table churn between executions — the signature of generated
// MAX/PERST plans, which create and drop scratch tables around every
// statement — must not invalidate cached plans for unrelated queries.
func TestPlanSurvivesTempTableChurn(t *testing.T) {
	db := newTestDB(t)
	prep := NewPrepared()
	stmt := parseStmt(t, `SELECT title FROM item WHERE price > 15.0`)

	first := runPrepared(t, db, prep, stmt, nil)
	h0 := db.Stats.PlanReuseHits
	mustExec(t, db, `
		CREATE TEMP TABLE scratch (x INTEGER);
		INSERT INTO scratch VALUES (1);
		DROP TABLE scratch;
	`)
	second := runPrepared(t, db, prep, stmt, nil)
	if db.Stats.PlanReuseHits <= h0 {
		t.Fatalf("temp-table churn invalidated an unrelated plan (hits %d -> %d)",
			h0, db.Stats.PlanReuseHits)
	}
	if got, want := rowsText(second), rowsText(first); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("results diverged across churn: %v vs %v", got, want)
	}
}

// A plan reading a temp table is still correct when the table is
// recreated: same shape keeps the plan usable, a different shape (or a
// missing table) forces a rebuild rather than serving stale metadata.
func TestPlanValidatesTempTableShape(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE TEMP TABLE tt (a INTEGER, b VARCHAR(10));
		INSERT INTO tt VALUES (1, 'x');`)
	stmt := parseStmt(t, `SELECT a, b FROM tt`)
	if _, err := db.ExecStmt(stmt); err != nil {
		t.Fatal(err)
	}

	// Recreate with the columns swapped: the cached plan's metadata no
	// longer matches, so evaluation must re-resolve, not misbind.
	mustExec(t, db, `DROP TABLE tt;
		CREATE TEMP TABLE tt (b VARCHAR(10), a INTEGER);
		INSERT INTO tt VALUES ('y', 2);`)
	res, err := db.ExecStmt(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(rowsText(res)); got != "[2,y]" {
		t.Fatalf("stale plan metadata after temp recreate: %s", got)
	}

	// Dropping the table entirely must surface the resolution error.
	mustExec(t, db, `DROP TABLE tt`)
	if _, err := db.ExecStmt(stmt); err == nil {
		t.Fatal("query over dropped temp table must fail")
	}
}

// A temp table newly shadowing a name that previously resolved to a
// view must invalidate plans built against the view.
func TestPlanInvalidatedByTempShadowingView(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE VIEW pricey (title) AS SELECT title FROM item WHERE price > 15.0`)
	stmt := parseStmt(t, `SELECT title FROM pricey`)
	res, err := db.ExecStmt(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("view query: %d rows, want 2", len(res.Rows))
	}

	mustExec(t, db, `CREATE TEMP TABLE pricey (title VARCHAR(100));
		INSERT INTO pricey VALUES ('only me');`)
	res, err = db.ExecStmt(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(rowsText(res)); got != "[only me]" {
		t.Fatalf("temp table failed to shadow view for cached plan: %s", got)
	}
}

// A plan over a view whose columns come from star expansion must follow
// the base table: recreating it with reordered columns changes what the
// view's columns are, so the plan must re-infer them, not misbind.
func TestPlanFollowsStarViewBase(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE TABLE base (a INTEGER, b VARCHAR(10));
		INSERT INTO base VALUES (1, 'x');
		CREATE VIEW sv AS SELECT * FROM base`)
	prep := NewPrepared()
	stmt := parseStmt(t, `SELECT b FROM sv`)
	if got := fmt.Sprint(rowsText(runPrepared(t, db, prep, stmt, nil))); got != "[x]" {
		t.Fatalf("before: %s", got)
	}
	mustExec(t, db, `DROP TABLE base;
		CREATE TABLE base (b VARCHAR(10), a INTEGER);
		INSERT INTO base VALUES ('y', 2)`)
	if got := fmt.Sprint(rowsText(runPrepared(t, db, prep, stmt, nil))); got != "[y]" {
		t.Fatalf("stale view columns after the base table changed: %s", got)
	}
}
