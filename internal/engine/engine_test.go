package engine

import (
	"strings"
	"testing"

	"taupsm/internal/sqlast"
	"taupsm/internal/sqlparser"
	"taupsm/internal/types"
)

type sqlastExpr = sqlast.Expr

// mustExec executes a script and fails the test on error.
func mustExec(t *testing.T, db *DB, src string) *Result {
	t.Helper()
	res, err := db.ExecScript(src)
	if err != nil {
		t.Fatalf("exec %q: %v", src, err)
	}
	return res
}

func newTestDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	mustExec(t, db, `
		CREATE TABLE item (id INTEGER, title VARCHAR(100), price FLOAT);
		INSERT INTO item VALUES (1, 'SQL Basics', 10.0), (2, 'Go in Action', 20.0), (3, 'Temporal Data', 30.0);
		CREATE TABLE item_author (item_id INTEGER, author_id INTEGER);
		INSERT INTO item_author VALUES (1, 10), (2, 10), (2, 11), (3, 12);
		CREATE TABLE author (author_id INTEGER, first_name VARCHAR(50), last_name VARCHAR(50));
		INSERT INTO author VALUES (10, 'Ben', 'Stone'), (11, 'Amy', 'Reed'), (12, 'Cy', 'Tan');
	`)
	return db
}

func rowsText(res *Result) []string {
	var out []string
	for _, r := range res.Rows {
		var parts []string
		for _, v := range r {
			parts = append(parts, v.Text())
		}
		out = append(out, strings.Join(parts, ","))
	}
	return out
}

func expectRows(t *testing.T, res *Result, want ...string) {
	t.Helper()
	got := rowsText(res)
	if len(got) != len(want) {
		t.Fatalf("got %d rows %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: got %q, want %q (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestSimpleSelect(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT title FROM item WHERE id = 2`)
	expectRows(t, res, "Go in Action")
}

func TestJoinImplicit(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `
		SELECT i.title FROM item i, item_author ia, author a
		WHERE i.id = ia.item_id AND ia.author_id = a.author_id AND a.first_name = 'Ben'
		ORDER BY i.title`)
	expectRows(t, res, "Go in Action", "SQL Basics")
}

func TestJoinExplicit(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `
		SELECT a.first_name FROM item i JOIN item_author ia ON i.id = ia.item_id
		JOIN author a ON a.author_id = ia.author_id
		WHERE i.id = 2 ORDER BY a.first_name`)
	expectRows(t, res, "Amy", "Ben")
}

func TestLeftJoin(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `INSERT INTO item VALUES (4, 'Orphan Book', 5.0)`)
	res := mustExec(t, db, `
		SELECT i.title FROM item i LEFT JOIN item_author ia ON i.id = ia.item_id
		WHERE ia.author_id IS NULL`)
	expectRows(t, res, "Orphan Book")
}

func TestAggregates(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT COUNT(*), SUM(price), MIN(price), MAX(price), AVG(price) FROM item`)
	expectRows(t, res, "3,60.0,10.0,30.0,20.0")
}

func TestGroupByHaving(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `
		SELECT ia.author_id, COUNT(*) AS n FROM item_author ia
		GROUP BY ia.author_id HAVING COUNT(*) > 1 ORDER BY ia.author_id`)
	expectRows(t, res, "10,2")
}

func TestAggregateEmptyInput(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT COUNT(*), SUM(price) FROM item WHERE id > 99`)
	expectRows(t, res, "0,NULL")
}

func TestSubqueries(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `
		SELECT title FROM item
		WHERE id IN (SELECT item_id FROM item_author WHERE author_id = 12)`)
	expectRows(t, res, "Temporal Data")

	res = mustExec(t, db, `
		SELECT title FROM item i
		WHERE EXISTS (SELECT 1 FROM item_author ia WHERE ia.item_id = i.id AND ia.author_id = 11)`)
	expectRows(t, res, "Go in Action")

	res = mustExec(t, db, `
		SELECT (SELECT first_name FROM author WHERE author_id = 10) FROM item WHERE id = 1`)
	expectRows(t, res, "Ben")
}

func TestScalarSubqueryCardinality(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.ExecScript(`SELECT (SELECT author_id FROM author) FROM item`); err == nil {
		t.Fatal("expected error for multi-row scalar subquery")
	}
	res := mustExec(t, db, `SELECT (SELECT first_name FROM author WHERE author_id = 99) FROM item WHERE id = 1`)
	expectRows(t, res, "NULL")
}

func TestSetOperations(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `
		SELECT author_id FROM item_author WHERE item_id = 1
		UNION SELECT author_id FROM item_author WHERE item_id = 2
		ORDER BY author_id`)
	expectRows(t, res, "10", "11")

	res = mustExec(t, db, `
		SELECT author_id FROM item_author WHERE item_id = 2
		EXCEPT SELECT author_id FROM item_author WHERE item_id = 1`)
	expectRows(t, res, "11")

	res = mustExec(t, db, `
		SELECT author_id FROM item_author WHERE item_id = 2
		INTERSECT SELECT author_id FROM item_author WHERE item_id = 1`)
	expectRows(t, res, "10")
}

func TestDistinctOrderLimit(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT DISTINCT author_id FROM item_author ORDER BY author_id DESC FETCH FIRST 2 ROWS ONLY`)
	expectRows(t, res, "12", "11")
}

func TestNullSemantics(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `INSERT INTO item VALUES (5, NULL, NULL)`)
	res := mustExec(t, db, `SELECT id FROM item WHERE title = NULL`)
	expectRows(t, res) // = NULL is unknown, never true
	res = mustExec(t, db, `SELECT id FROM item WHERE title IS NULL`)
	expectRows(t, res, "5")
	res = mustExec(t, db, `SELECT id FROM item WHERE NOT (price > 0) AND id = 5`)
	expectRows(t, res) // NOT UNKNOWN is UNKNOWN
}

func TestUpdateDelete(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `UPDATE item SET price = price + 1 WHERE id <= 2`)
	if res.Affected != 2 {
		t.Fatalf("affected = %d, want 2", res.Affected)
	}
	res = mustExec(t, db, `SELECT price FROM item WHERE id = 1`)
	expectRows(t, res, "11.0")
	res = mustExec(t, db, `DELETE FROM item WHERE id = 3`)
	if res.Affected != 1 {
		t.Fatalf("affected = %d, want 1", res.Affected)
	}
	res = mustExec(t, db, `SELECT COUNT(*) FROM item`)
	expectRows(t, res, "2")
}

func TestInsertColumnList(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `INSERT INTO item (id, title) VALUES (9, 'Partial')`)
	res := mustExec(t, db, `SELECT id, title, price FROM item WHERE id = 9`)
	expectRows(t, res, "9,Partial,NULL")
}

func TestCreateTableAsQuery(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE TABLE cheap AS (SELECT id, title FROM item WHERE price < 25)`)
	res := mustExec(t, db, `SELECT COUNT(*) FROM cheap`)
	expectRows(t, res, "2")
}

func TestViews(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE VIEW ben_items AS (
		SELECT i.title FROM item i, item_author ia
		WHERE i.id = ia.item_id AND ia.author_id = 10)`)
	res := mustExec(t, db, `SELECT title FROM ben_items ORDER BY title`)
	expectRows(t, res, "Go in Action", "SQL Basics")
}

func TestTemporalTableDDL(t *testing.T) {
	db := New()
	db.Now = types.MustDate(2010, 6, 1)
	mustExec(t, db, `CREATE TABLE pub (id INTEGER, name VARCHAR(20)) AS VALIDTIME`)
	tab := db.Cat.Table("pub")
	if tab == nil || !tab.ValidTime {
		t.Fatal("expected temporal table")
	}
	if n := len(tab.Schema.Cols); n != 4 {
		t.Fatalf("expected 4 columns (2 + timestamps), got %d", n)
	}
	mustExec(t, db, `INSERT INTO pub VALUES (1, 'ACM', DATE '2010-01-01', DATE '2010-12-31')`)
	res := mustExec(t, db, `SELECT name FROM pub WHERE begin_time <= CURRENT_DATE AND CURRENT_DATE < end_time`)
	expectRows(t, res, "ACM")
}

func TestAlterAddValidTime(t *testing.T) {
	db := New()
	db.Now = types.MustDate(2010, 6, 1)
	mustExec(t, db, `CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1)`)
	mustExec(t, db, `ALTER TABLE t ADD VALIDTIME`)
	res := mustExec(t, db, `SELECT a, begin_time, end_time FROM t`)
	expectRows(t, res, "1,2010-06-01,9999-12-31")
}

func TestStoredFunction(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `
CREATE FUNCTION get_author_name (aid INTEGER)
RETURNS CHAR(50)
READS SQL DATA
LANGUAGE SQL
BEGIN
  DECLARE fname CHAR(50);
  SET fname = (SELECT first_name FROM author WHERE author_id = aid);
  RETURN fname;
END`)
	res := mustExec(t, db, `
		SELECT i.title FROM item i, item_author ia
		WHERE i.id = ia.item_id AND get_author_name(ia.author_id) = 'Ben'
		ORDER BY i.title`)
	expectRows(t, res, "Go in Action", "SQL Basics")
	if db.Stats.RoutineCalls == 0 {
		t.Fatal("expected routine call stats")
	}
}

func TestFunctionControlFlow(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `
CREATE FUNCTION classify (p FLOAT)
RETURNS CHAR(10)
LANGUAGE SQL
BEGIN
  IF p < 15 THEN RETURN 'cheap';
  ELSEIF p < 25 THEN RETURN 'mid';
  ELSE RETURN 'dear';
  END IF;
END`)
	res := mustExec(t, db, `SELECT classify(price) FROM item ORDER BY id`)
	expectRows(t, res, "cheap", "mid", "dear")
}

func TestWhileLoopFunction(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `
CREATE FUNCTION sum_to (n INTEGER)
RETURNS INTEGER
LANGUAGE SQL
BEGIN
  DECLARE i INTEGER DEFAULT 0;
  DECLARE acc INTEGER DEFAULT 0;
  WHILE i < n DO
    SET i = i + 1;
    SET acc = acc + i;
  END WHILE;
  RETURN acc;
END`)
	res := mustExec(t, db, `SELECT sum_to(10) FROM item WHERE id = 1`)
	expectRows(t, res, "55")
}

func TestRepeatLoop(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `
CREATE FUNCTION rep (n INTEGER)
RETURNS INTEGER
LANGUAGE SQL
BEGIN
  DECLARE i INTEGER DEFAULT 0;
  REPEAT SET i = i + 1; UNTIL i >= n END REPEAT;
  RETURN i;
END`)
	res := mustExec(t, db, `SELECT rep(0) FROM item WHERE id = 1`)
	expectRows(t, res, "1") // REPEAT bodies run at least once
}

func TestForLoop(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `
CREATE FUNCTION total_price ()
RETURNS FLOAT
LANGUAGE SQL
BEGIN
  DECLARE acc FLOAT DEFAULT 0.0;
  FOR r AS SELECT price FROM item DO
    SET acc = acc + r.price;
  END FOR;
  RETURN acc;
END`)
	res := mustExec(t, db, `SELECT total_price() FROM item WHERE id = 1`)
	expectRows(t, res, "60.0")
}

func TestCursorWithHandler(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `
CREATE FUNCTION count_items ()
RETURNS INTEGER
LANGUAGE SQL
BEGIN
  DECLARE done INTEGER DEFAULT 0;
  DECLARE n INTEGER DEFAULT 0;
  DECLARE v INTEGER DEFAULT 0;
  DECLARE cur CURSOR FOR SELECT id FROM item;
  DECLARE CONTINUE HANDLER FOR NOT FOUND SET done = 1;
  OPEN cur;
  wl: WHILE done = 0 DO
    FETCH cur INTO v;
    IF done = 0 THEN SET n = n + 1; END IF;
  END WHILE wl;
  CLOSE cur;
  RETURN n;
END`)
	res := mustExec(t, db, `SELECT count_items() FROM item WHERE id = 1`)
	expectRows(t, res, "3")
}

func TestProcedureOutParam(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `
CREATE PROCEDURE get_count (IN aid INTEGER, OUT n INTEGER)
LANGUAGE SQL
BEGIN
  SET n = (SELECT COUNT(*) FROM item_author WHERE author_id = aid);
END`)
	mustExec(t, db, `
CREATE FUNCTION wrap (aid INTEGER)
RETURNS INTEGER
LANGUAGE SQL
BEGIN
  DECLARE m INTEGER DEFAULT 0;
  CALL get_count(aid, m);
  RETURN m;
END`)
	res := mustExec(t, db, `SELECT wrap(10) FROM item WHERE id = 1`)
	expectRows(t, res, "2")
}

func TestLeaveIterate(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `
CREATE FUNCTION f ()
RETURNS INTEGER
LANGUAGE SQL
BEGIN
  DECLARE i INTEGER DEFAULT 0;
  DECLARE acc INTEGER DEFAULT 0;
  lp: WHILE i < 100 DO
    SET i = i + 1;
    IF i = 5 THEN ITERATE lp; END IF;
    IF i > 8 THEN LEAVE lp; END IF;
    SET acc = acc + i;
  END WHILE lp;
  RETURN acc;
END`)
	res := mustExec(t, db, `SELECT f() FROM item WHERE id = 1`)
	// 1+2+3+4+6+7+8 = 31 (5 skipped, loop left at 9)
	expectRows(t, res, "31")
}

func TestCaseStatement(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `
CREATE FUNCTION size_of (p FLOAT)
RETURNS CHAR(5)
LANGUAGE SQL
BEGIN
  DECLARE r CHAR(5);
  CASE
    WHEN p < 15 THEN SET r = 'small';
    WHEN p < 25 THEN SET r = 'mid';
    ELSE SET r = 'big';
  END CASE;
  RETURN r;
END`)
	res := mustExec(t, db, `SELECT size_of(price) FROM item ORDER BY id`)
	expectRows(t, res, "small", "mid", "big")
}

func TestTableValuedVariableAndTableFunc(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `
CREATE FUNCTION hist (aid INTEGER)
RETURNS ROW(taupsm_result CHAR(50), begin_time DATE, end_time DATE) ARRAY
READS SQL DATA
LANGUAGE SQL
BEGIN
  DECLARE acc ROW(taupsm_result CHAR(50), begin_time DATE, end_time DATE) ARRAY;
  INSERT INTO TABLE acc
    SELECT first_name, DATE '2010-01-01', DATE '2011-01-01'
    FROM author WHERE author_id = aid;
  RETURN acc;
END`)
	res := mustExec(t, db, `
		SELECT f.taupsm_result, f.begin_time FROM TABLE(hist(10)) AS f`)
	expectRows(t, res, "Ben,2010-01-01")
}

func TestLateralTableFunc(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `
CREATE FUNCTION name_of (aid INTEGER)
RETURNS ROW(taupsm_result CHAR(50), begin_time DATE, end_time DATE) ARRAY
READS SQL DATA
LANGUAGE SQL
BEGIN
  DECLARE acc ROW(taupsm_result CHAR(50), begin_time DATE, end_time DATE) ARRAY;
  INSERT INTO TABLE acc
    SELECT first_name, DATE '2010-01-01', DATE '2011-01-01'
    FROM author WHERE author_id = aid;
  RETURN acc;
END`)
	// lateral: function argument references the preceding table
	res := mustExec(t, db, `
		SELECT i.title FROM item i, item_author ia, TABLE(name_of(ia.author_id)) AS f
		WHERE i.id = ia.item_id AND f.taupsm_result = 'Ben'
		ORDER BY i.title`)
	expectRows(t, res, "Go in Action", "SQL Basics")
}

func TestSignalAndHandlers(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `
CREATE FUNCTION risky (x INTEGER)
RETURNS CHAR(5)
LANGUAGE SQL
BEGIN
  DECLARE EXIT HANDLER FOR SQLSTATE '70001' RETURN 'err';
  IF x = 1 THEN SIGNAL SQLSTATE '70001' SET MESSAGE_TEXT = 'boom'; END IF;
  RETURN 'ok';
END`)
	res := mustExec(t, db, `SELECT risky(1), risky(0) FROM item WHERE id = 1`)
	expectRows(t, res, "err,ok")
}

func TestNestedRoutineCalls(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `
CREATE FUNCTION inner_f (x INTEGER) RETURNS INTEGER LANGUAGE SQL BEGIN RETURN x * 2; END;
CREATE FUNCTION outer_f (x INTEGER) RETURNS INTEGER LANGUAGE SQL BEGIN RETURN inner_f(x) + 1; END;
`)
	res := mustExec(t, db, `SELECT outer_f(20) FROM item WHERE id = 1`)
	expectRows(t, res, "41")
}

func TestRecursionGuard(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE FUNCTION rec (x INTEGER) RETURNS INTEGER LANGUAGE SQL BEGIN RETURN rec(x); END`)
	if _, err := db.ExecScript(`SELECT rec(1) FROM item WHERE id = 1`); err == nil {
		t.Fatal("expected recursion error")
	}
}

func TestTemporalModifierRejected(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.ExecScript(`VALIDTIME SELECT title FROM item`); err == nil {
		t.Fatal("expected rejection of sequenced query by conventional engine")
	}
	if _, err := db.ExecScript(`NONSEQUENCED VALIDTIME SELECT title FROM item`); err == nil {
		t.Fatal("expected rejection of nonsequenced query by conventional engine")
	}
}

func TestBuiltins(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT UPPER('ab'), LOWER('AB'), LENGTH('abc'), SUBSTR('hello', 2, 3),
		ABS(-4), MOD(7, 3), COALESCE(NULL, 'x'), NULLIF(1, 1),
		FIRST_INSTANCE(DATE '2010-01-01', DATE '2010-06-01'),
		LAST_INSTANCE(DATE '2010-01-01', DATE '2010-06-01'),
		YEAR(DATE '2010-03-04'), MONTH(DATE '2010-03-04'), DAY(DATE '2010-03-04')
		FROM item WHERE id = 1`)
	expectRows(t, res, "AB,ab,3,ell,4,1,x,NULL,2010-01-01,2010-06-01,2010,3,4")
}

func TestDateArithmetic(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT DATE '2010-01-01' + 31, DATE '2010-02-01' - DATE '2010-01-01' FROM item WHERE id = 1`)
	expectRows(t, res, "2010-02-01,31")
}

func TestCaseExprAndBetween(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `
		SELECT CASE WHEN price BETWEEN 15 AND 25 THEN 'band' ELSE 'out' END
		FROM item ORDER BY id`)
	expectRows(t, res, "out", "band", "out")
}

func TestLike(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `SELECT title FROM item WHERE title LIKE '%Action%'`)
	expectRows(t, res, "Go in Action")
	res = mustExec(t, db, `SELECT title FROM item WHERE title LIKE '_QL%'`)
	expectRows(t, res, "SQL Basics")
}

func TestDerivedTable(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `
		SELECT x.t FROM (SELECT title AS t, price FROM item WHERE price > 15) AS x
		ORDER BY x.price DESC`)
	expectRows(t, res, "Temporal Data", "Go in Action")
}

func TestAnonymousBlock(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `
BEGIN
  DECLARE n INTEGER DEFAULT 0;
  SET n = (SELECT COUNT(*) FROM item);
  IF n > 0 THEN
    INSERT INTO item VALUES (100, 'From Block', 1.0);
  END IF;
END`)
	res := mustExec(t, db, `SELECT title FROM item WHERE id = 100`)
	expectRows(t, res, "From Block")
}

func TestStatsRowsScanned(t *testing.T) {
	db := newTestDB(t)
	db.Stats.Reset()
	mustExec(t, db, `SELECT title FROM item WHERE id = 1`)
	if db.Stats.RowsScanned == 0 {
		t.Fatal("expected rows scanned to be counted")
	}
}

func TestIndexLookupUsed(t *testing.T) {
	db := newTestDB(t)
	// Prime the index, then verify a repeated equality probe scans
	// fewer rows than a full scan would.
	mustExec(t, db, `SELECT title FROM item WHERE id = 1`)
	db.Stats.Reset()
	mustExec(t, db, `SELECT title FROM item WHERE id = 1`)
	if db.Stats.RowsScanned > 1 {
		t.Fatalf("expected index probe to scan 1 row, scanned %d", db.Stats.RowsScanned)
	}
}

func mustParseExpr(t *testing.T, src string) sqlastExpr {
	t.Helper()
	e, err := sqlparser.ParseExpr(src)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// Regression test: a table function inside an explicit JOIN kept rows
// its WHERE conjuncts reject, on either side of the join, while the
// comma form filtered them. Every form must return the one row.
func TestTableFuncJoinKeepsWhereFilter(t *testing.T) {
	db := New()
	mustExec(t, db, `
CREATE TABLE t (k INTEGER, v VARCHAR(10));
INSERT INTO t VALUES (1, 'one'), (2, 'two');
CREATE FUNCTION nums ()
RETURNS ROW(n INTEGER) ARRAY
LANGUAGE SQL
BEGIN
  DECLARE r ROW(n INTEGER) ARRAY;
  INSERT INTO TABLE r VALUES (1), (2);
  RETURN r;
END`)
	for _, q := range []string{
		`SELECT f.n, t.v FROM TABLE(nums()) AS f JOIN t ON f.n = t.k WHERE f.n > 1`,
		`SELECT f.n, t.v FROM t JOIN TABLE(nums()) AS f ON f.n = t.k WHERE f.n > 1`,
		`SELECT f.n, t.v FROM TABLE(nums()) AS f, t WHERE f.n = t.k AND f.n > 1`,
	} {
		expectRows(t, mustExec(t, db, q), "2,two")
	}
}

// A table function loaded as a source is scanned like a stored table,
// including the hash-index path for an equality. Column aliases rename
// the collection's columns by position, so the lookup must follow the
// alias, not the collection's own column names.
func TestTableFuncColumnAliasesIndexLookup(t *testing.T) {
	db := New()
	mustExec(t, db, `
CREATE FUNCTION pairs ()
RETURNS ROW(a INTEGER, b INTEGER) ARRAY
LANGUAGE SQL
BEGIN
  DECLARE r ROW(a INTEGER, b INTEGER) ARRAY;
  INSERT INTO TABLE r VALUES (1, 10), (2, 20);
  RETURN r;
END`)
	res := mustExec(t, db, `SELECT f.a, f.b FROM TABLE(pairs()) AS f (b, a) WHERE f.a = 10`)
	expectRows(t, res, "10,1")
}
