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
