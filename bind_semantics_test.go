package taupsm

import (
	"strings"
	"sync"
	"testing"
)

// orderedRows renders result rows in result order.
func orderedRows(res *Result) string {
	var out []string
	for _, row := range res.Rows {
		var parts []string
		for _, v := range row {
			parts = append(parts, v.String())
		}
		out = append(out, strings.Join(parts, "|"))
	}
	return strings.Join(out, "; ")
}

// TestNameResolutionSemantics pins how names resolve in the evaluator,
// which binds each SELECT's expressions against the row layout of the
// site evaluating them: what is read from the local row, what from an
// enclosing query or a PSM variable, and what join and ordering
// semantics the bound evaluators keep.
func TestNameResolutionSemantics(t *testing.T) {
	db := paperDB(t)
	db.MustExec(`
CREATE TABLE t (k INTEGER, v INTEGER);
INSERT INTO t VALUES (1, 10), (2, 20), (NULL, 30);
CREATE TABLE u (k INTEGER, w INTEGER);
INSERT INTO u VALUES (1, 100), (3, 300), (NULL, 400);

CREATE FUNCTION shadowed () RETURNS INTEGER LANGUAGE SQL
BEGIN
  DECLARE k INTEGER DEFAULT 2;
  DECLARE w INTEGER DEFAULT 7;
  RETURN (SELECT v + w FROM t WHERE k = 1);
END;
`)
	for _, tc := range []struct{ name, query, want string }{
		{"column shadows variable", `SELECT shadowed() FROM u WHERE k = 1`, "17"},
		{"qualified outer reference in select list",
			`SELECT u.k, (SELECT t.v FROM t WHERE t.k = u.k) FROM u ORDER BY u.w`, "1|10; 3|NULL; NULL|NULL"},
		{"qualified outer reference in subquery conjunct",
			`SELECT w FROM u WHERE EXISTS (SELECT 1 FROM t WHERE t.k = u.k) ORDER BY w`, "100"},
		{"correlated subquery in residual conjunct",
			`SELECT t.v, u.w FROM t, u WHERE t.k = u.k OR (SELECT COUNT(*) FROM t t2 WHERE t2.v <= t.v) = 3 ORDER BY u.w`,
			"10|100; 30|100; 30|300; 30|400"},
		{"left join null-extends",
			`SELECT t.v, u.w FROM t LEFT JOIN u ON t.k = u.k ORDER BY t.v`, "10|100; 20|NULL; 30|NULL"},
		{"order by select alias", `SELECT v AS vv, k FROM t ORDER BY vv DESC`, "30|NULL; 20|2; 10|1"},
		{"order by ordinal", `SELECT k, v FROM t WHERE v < 30 ORDER BY 2 DESC`, "2|20; 1|10"},
		{"order by expression", `SELECT v FROM t ORDER BY 0 - v`, "30; 20; 10"},
		{"null hash-join keys never match", `SELECT t.v, u.w FROM t, u WHERE t.k = u.k`, "10|100"},
		{"duplicate alias: first wins", `SELECT a.w FROM u a, t a WHERE a.w = 300`, "300; 300; 300"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := db.Query(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			if got := orderedRows(res); got != tc.want {
				t.Fatalf("got %s, want %s", got, tc.want)
			}
		})
	}

	// A routine-body SELECT evaluated under MAX by parallel fragment
	// workers shares one plan per statement across the sessions; every
	// degree must give the serial result, also with statements running
	// concurrently.
	t.Run("max shares plans across sessions", func(t *testing.T) {
		const q = `VALIDTIME (DATE '2010-01-01', DATE '2011-01-01')
SELECT i.title FROM item i, item_author ia
WHERE i.id = ia.item_id AND get_author_name(ia.author_id) = 'Ben'`
		db.SetStrategy(Max)
		defer db.SetStrategy(Auto)
		db.SetParallelism(1)
		serial, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want := sortedRows(serial)
		if len(want) == 0 {
			t.Fatal("serial MAX run returned no rows")
		}
		db.SetParallelism(4)
		defer db.SetParallelism(0)
		var wg sync.WaitGroup
		errs := make(chan string, 4)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := db.Query(q)
				if err != nil {
					errs <- err.Error()
					return
				}
				if got := strings.Join(sortedRows(res), "; "); got != strings.Join(want, "; ") {
					errs <- "parallel: " + got + " want " + strings.Join(want, "; ")
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	})
}
