package engine

import (
	"testing"
)

// memoDB is a database with a pure function over a mutable table and a
// driver procedure that calls it repeatedly in one statement.
func memoDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	mustExec(t, db, `
		CREATE TABLE counters (k INTEGER, v INTEGER);
		INSERT INTO counters VALUES (1, 100), (2, 200);
		CREATE FUNCTION get_v (kk INTEGER)
		RETURNS INTEGER
		READS SQL DATA
		LANGUAGE SQL
		BEGIN
		  DECLARE r INTEGER;
		  SET r = (SELECT v FROM counters WHERE k = kk);
		  RETURN r;
		END;
	`)
	return db
}

// A pure function called twice with the same argument in one statement
// executes once; the second call is a memo hit that still counts as a
// logical routine call.
func TestFnMemoHitCountsAsCall(t *testing.T) {
	db := memoDB(t)
	base := db.Stats
	res := mustExec(t, db, `SELECT get_v(1) + get_v(1) + get_v(2) FROM counters WHERE k = 1`)
	if got := res.Rows[0][0].Int(); got != 400 {
		t.Fatalf("result = %d, want 400", got)
	}
	if calls := db.Stats.RoutineCalls - base.RoutineCalls; calls != 3 {
		t.Fatalf("RoutineCalls delta = %d, want 3 (memo hits are logical calls)", calls)
	}
	if hits := db.Stats.RoutineMemoHits - base.RoutineMemoHits; hits != 1 {
		t.Fatalf("RoutineMemoHits delta = %d, want 1", hits)
	}
}

// The memo is scoped to one statement: a later statement re-executes
// the function and sees data changed between statements.
func TestFnMemoPerStatement(t *testing.T) {
	db := memoDB(t)
	r1 := mustExec(t, db, `SELECT get_v(1) FROM counters WHERE k = 1`)
	mustExec(t, db, `UPDATE counters SET v = 111 WHERE k = 1`)
	r2 := mustExec(t, db, `SELECT get_v(1) FROM counters WHERE k = 1`)
	if a, b := r1.Rows[0][0].Int(), r2.Rows[0][0].Int(); a != 100 || b != 111 {
		t.Fatalf("got %d then %d, want 100 then 111", a, b)
	}
}

// DML inside the statement wipes the memo: a procedure that reads,
// writes, and re-reads through the same pure function must observe the
// write.
func TestFnMemoInvalidatedByWriteInStatement(t *testing.T) {
	db := memoDB(t)
	mustExec(t, db, `
		CREATE TABLE probe (a INTEGER, b INTEGER);
		CREATE PROCEDURE read_write_read ()
		MODIFIES SQL DATA
		LANGUAGE SQL
		BEGIN
		  DECLARE before INTEGER;
		  DECLARE after INTEGER;
		  SET before = get_v(1);
		  UPDATE counters SET v = 999 WHERE k = 1;
		  SET after = get_v(1);
		  INSERT INTO probe VALUES (before, after);
		END;
	`)
	mustExec(t, db, `CALL read_write_read()`)
	res := mustExec(t, db, `SELECT a, b FROM probe`)
	if a, b := res.Rows[0][0].Int(), res.Rows[0][1].Int(); a != 100 || b != 999 {
		t.Fatalf("read-write-read saw %d then %d, want 100 then 999", a, b)
	}
}

// A function that writes a stored table is impure and never memoized —
// every call runs.
func TestFnMemoSkipsImpureFunctions(t *testing.T) {
	db := memoDB(t)
	mustExec(t, db, `
		CREATE TABLE audit (n INTEGER);
		CREATE FUNCTION noisy_v (kk INTEGER)
		RETURNS INTEGER
		MODIFIES SQL DATA
		LANGUAGE SQL
		BEGIN
		  INSERT INTO audit VALUES (kk);
		  RETURN (SELECT v FROM counters WHERE k = kk);
		END;
	`)
	mustExec(t, db, `SELECT noisy_v(1) + noisy_v(1) FROM counters WHERE k = 1`)
	res := mustExec(t, db, `SELECT n FROM audit`)
	if len(res.Rows) != 2 {
		t.Fatalf("impure function ran %d times, want 2", len(res.Rows))
	}
	if db.Stats.RoutineMemoHits != 0 {
		t.Fatalf("RoutineMemoHits = %d for an impure function, want 0", db.Stats.RoutineMemoHits)
	}
	// Transitively: a pure-looking wrapper around an impure callee is
	// impure too.
	mustExec(t, db, `
		CREATE FUNCTION wrapper (kk INTEGER)
		RETURNS INTEGER
		READS SQL DATA
		LANGUAGE SQL
		BEGIN
		  RETURN noisy_v(kk);
		END;
	`)
	mustExec(t, db, `SELECT wrapper(2) + wrapper(2) FROM counters WHERE k = 1`)
	res = mustExec(t, db, `SELECT n FROM audit`)
	if len(res.Rows) != 4 {
		t.Fatalf("impure wrapper ran %d audit inserts total, want 4", len(res.Rows))
	}
}

// tableFuncDB is memoDB plus a second table keyed by author and a
// write-free table function over it.
func tableFuncDB(t *testing.T) *DB {
	t.Helper()
	db := memoDB(t)
	mustExec(t, db, `
		CREATE TABLE author (author_id INTEGER, first_name VARCHAR(50));
		INSERT INTO author VALUES (10, 'Ben'), (11, 'Amy'), (12, 'Cy');
		CREATE TABLE item_author (item_id INTEGER, author_id INTEGER);
		INSERT INTO item_author VALUES (1, 10), (2, 10), (2, 11), (3, 12);
		CREATE TABLE audit (n INTEGER);
		CREATE FUNCTION name_of (aid INTEGER)
		RETURNS ROW(nm VARCHAR(50)) ARRAY
		READS SQL DATA
		LANGUAGE SQL
		BEGIN
		  DECLARE acc ROW(nm VARCHAR(50)) ARRAY;
		  INSERT INTO TABLE acc SELECT first_name FROM author WHERE author_id = aid;
		  RETURN acc;
		END;
	`)
	return db
}

// callDelta runs src and returns the routine calls and memo hits it
// added.
func callDelta(t *testing.T, db *DB, src string) (*Result, int64, int64) {
	t.Helper()
	base := db.Stats
	res := mustExec(t, db, src)
	return res, db.Stats.RoutineCalls - base.RoutineCalls, db.Stats.RoutineMemoHits - base.RoutineMemoHits
}

// A table function whose arguments reference no earlier FROM item is
// an ordinary source: called once, not once per accumulated row.
func TestInvariantTableFuncRunsOnce(t *testing.T) {
	db := tableFuncDB(t)
	res, calls, hits := callDelta(t, db, `
		SELECT ia.item_id, f.nm FROM item_author ia, TABLE(name_of(10)) AS f
		WHERE ia.author_id = 10 ORDER BY ia.item_id`)
	expectRows(t, res, "1,Ben", "2,Ben")
	if calls != 1 || hits != 0 {
		t.Fatalf("calls=%d hits=%d, want 1/0 (one evaluation for an invariant argument vector)", calls, hits)
	}
}

// A correlated table function of a write-free routine executes once
// per distinct argument vector; the repeats are memo hits that still
// count as logical calls. Its own collection-variable writes must not
// wipe the memo between rows.
func TestCorrelatedTableFuncOncePerVector(t *testing.T) {
	db := tableFuncDB(t)
	res, calls, hits := callDelta(t, db, `
		SELECT ia.item_id, f.nm FROM item_author ia, TABLE(name_of(ia.author_id)) AS f
		ORDER BY ia.item_id, f.nm`)
	expectRows(t, res, "1,Ben", "2,Amy", "2,Ben", "3,Cy")
	const rows, distinct = 4, 3
	if calls != rows || hits != rows-distinct {
		t.Fatalf("calls=%d hits=%d, want %d/%d", calls, hits, rows, rows-distinct)
	}
}

// A table function that writes a stored table is not memoizable: it
// still runs once per outer row.
func TestWritingTableFuncRunsPerRow(t *testing.T) {
	db := tableFuncDB(t)
	mustExec(t, db, `
		CREATE FUNCTION logged_name (aid INTEGER)
		RETURNS ROW(nm VARCHAR(50)) ARRAY
		MODIFIES SQL DATA
		LANGUAGE SQL
		BEGIN
		  DECLARE acc ROW(nm VARCHAR(50)) ARRAY;
		  INSERT INTO audit VALUES (aid);
		  INSERT INTO TABLE acc SELECT first_name FROM author WHERE author_id = aid;
		  RETURN acc;
		END;
	`)
	_, calls, hits := callDelta(t, db, `
		SELECT ia.item_id, f.nm FROM item_author ia, TABLE(logged_name(ia.author_id)) AS f`)
	if calls != 4 || hits != 0 {
		t.Fatalf("calls=%d hits=%d, want 4/0", calls, hits)
	}
	if res := mustExec(t, db, `SELECT n FROM audit`); len(res.Rows) != 4 {
		t.Fatalf("writing table function ran %d times, want 4", len(res.Rows))
	}
}

// A conjunct that calls a stored-table-writing routine between rows
// moves the write generation, so the next lookup misses and sees the
// write.
func TestTableFuncMemoMissesAfterWriteBetweenRows(t *testing.T) {
	db := tableFuncDB(t)
	mustExec(t, db, `
		CREATE FUNCTION rename_ben (nm VARCHAR(50))
		RETURNS INTEGER
		MODIFIES SQL DATA
		LANGUAGE SQL
		BEGIN
		  UPDATE author SET first_name = 'Benny' WHERE author_id = 10;
		  RETURN 1;
		END;
	`)
	res, calls, hits := callDelta(t, db, `
		SELECT ia.item_id, ia.author_id, f.nm FROM item_author ia, TABLE(name_of(ia.author_id)) AS f
		WHERE rename_ben(f.nm) = 1`)
	// Rows are produced in item_author order; the second author-10 row
	// calls name_of after the first row's rename.
	expectRows(t, res, "1,10,Ben", "2,10,Benny", "2,11,Amy", "3,12,Cy")
	if hits != 0 {
		t.Fatalf("memo hits = %d across stored-table writes, want 0 (calls=%d)", hits, calls)
	}
}

// Writes to a routine frame's collection variables and frame-local
// temporary tables cannot reach a memoized call, so they leave the
// scalar memo intact.
func TestFnMemoSurvivesFrameLocalWrites(t *testing.T) {
	db := memoDB(t)
	mustExec(t, db, `
		CREATE TABLE probe (a INTEGER, b INTEGER, c INTEGER);
		CREATE PROCEDURE read_thrice ()
		MODIFIES SQL DATA
		LANGUAGE SQL
		BEGIN
		  DECLARE acc ROW(v INTEGER) ARRAY;
		  DECLARE a INTEGER;
		  DECLARE b INTEGER;
		  DECLARE c INTEGER;
		  SET a = get_v(1);
		  INSERT INTO TABLE acc VALUES (a);
		  SET b = get_v(1);
		  CREATE TEMPORARY TABLE scratch (x INTEGER);
		  INSERT INTO scratch VALUES (b);
		  DELETE FROM scratch;
		  SET c = get_v(1);
		  DROP TABLE scratch;
		  INSERT INTO probe VALUES (a, b, c);
		END;
	`)
	_, _, hits := callDelta(t, db, `CALL read_thrice()`)
	if hits != 2 {
		t.Fatalf("memo hits = %d, want 2 (frame-local writes must not wipe the memo)", hits)
	}
	res := mustExec(t, db, `SELECT a, b, c FROM probe`)
	expectRows(t, res, "100,100,100")
}

// Redefining a callee so that it writes must stop memoization of its
// read-only caller: the caller's cached effect verdict depends on the
// callee's definition, not just on the caller's own.
func TestFnMemoStopsWhenCalleeStartsWriting(t *testing.T) {
	db := New()
	mustExec(t, db, `
		CREATE TABLE t (x INTEGER);
		INSERT INTO t VALUES (1), (2), (3);
		CREATE TABLE logt (n INTEGER);
		CREATE FUNCTION g (n INTEGER) RETURNS INTEGER RETURN n * 2;
		CREATE FUNCTION f (n INTEGER) RETURNS INTEGER RETURN g(n) + 1;
	`)
	res, calls, hits := callDelta(t, db, `SELECT f(1) FROM t`)
	if len(res.Rows) != 3 || res.Rows[0][0].Int() != 3 {
		t.Fatalf("f(1) over t = %v, want three rows of 3", res.Rows)
	}
	if hits != 2 {
		t.Fatalf("memo hits = %d (calls %d), want 2", hits, calls)
	}

	mustExec(t, db, `
		CREATE OR REPLACE FUNCTION g (n INTEGER)
		RETURNS INTEGER
		MODIFIES SQL DATA
		LANGUAGE SQL
		BEGIN
		  INSERT INTO logt VALUES (n);
		  RETURN n * 2;
		END;
	`)
	if _, _, hits := callDelta(t, db, `SELECT f(1) FROM t`); hits != 0 {
		t.Fatalf("memo hits after g started writing = %d, want 0", hits)
	}
	if res := mustExec(t, db, `SELECT n FROM logt`); len(res.Rows) != 3 {
		t.Fatalf("logt has %d rows, want 3 (one write per row)", len(res.Rows))
	}
}
