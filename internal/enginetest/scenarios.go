package enginetest

// Scenarios is the declarative scenario corpus the runner executes
// over the full axis grid. Add new coverage here: a scenario written
// once runs on MAX × PERST, serial × parallel, in-memory × persistent
// × crash-recovered, with automatic cross-axis row agreement.

var Scenarios = []Scenario{
	{
		// Harness sanity: the classic valid-time lifecycle, as a
		// baseline every axis must agree on.
		Name: "validtime-basics",
		Now:  Clock{2011, 1, 1},
		Setup: []Step{
			{Exec: `CREATE TABLE item (id CHAR(4), title CHAR(20)) AS VALIDTIME`},
			{Exec: `INSERT INTO item VALUES ('i1', 'Book')`},
			{SetNow: &Clock{2011, 3, 1}, Exec: `UPDATE item SET title = 'Tome' WHERE id = 'i1'`},
		},
		Steps: []Step{
			{Query: `SELECT title FROM item`, Expect: []string{"Tome"}},
			{Query: `VALIDTIME (DATE '2011-01-01', DATE '2011-06-01') SELECT title FROM item`,
				Coalesce: true,
				Expect: []string{
					"2011-01-01|2011-03-01|Book",
					"2011-03-01|2011-06-01|Tome",
				}},
		},
	},
	{
		// The tentpole acceptance scenario: a bitemporal table built by
		// sequenced valid-time DML, audited with "what did we believe on
		// date X about date Y" queries.
		Name: "bitemporal-audit",
		Now:  Clock{2011, 1, 10},
		Setup: []Step{
			{Exec: `CREATE TABLE position (id CHAR(4), title CHAR(20)) AS VALIDTIME AS TRANSACTIONTIME`},
			// Recorded on Jan 10: p1 is an engineer from Jan through June.
			{Exec: `VALIDTIME (DATE '2011-01-01', DATE '2011-07-01') INSERT INTO position VALUES ('p1', 'engineer')`},
			// Recorded on Feb 10: correction — p1 became a manager on Mar 1.
			{SetNow: &Clock{2011, 2, 10},
				Exec: `VALIDTIME (DATE '2011-03-01', DATE '2011-07-01') UPDATE position SET title = 'manager' WHERE id = 'p1'`},
		},
		Steps: []Step{
			// Current state, asked on Apr 1.
			{SetNow: &Clock{2011, 4, 1},
				Query: `SELECT title FROM position WHERE id = 'p1'`, Expect: []string{"manager"}},
			// Today's belief about the whole year. The plan must show the
			// bitemporal table as sliced and temporally read.
			{Query: `VALIDTIME (DATE '2011-01-01', DATE '2012-01-01') SELECT title FROM position`,
				Coalesce:      true,
				ExpectExplain: []string{"kind|sequenced", "temporal_tables|position"},
				Expect: []string{
					"2011-01-01|2011-03-01|engineer",
					"2011-03-01|2011-07-01|manager",
				}},
			// What did we believe on Jan 15 about May 1? (Before the
			// correction was recorded: still an engineer.)
			{Query: `VALIDTIME (DATE '2011-05-01') AND TRANSACTIONTIME (DATE '2011-01-15') SELECT title FROM position`,
				Coalesce: true,
				Expect:   []string{"2011-05-01|2011-05-02|engineer"}},
			// What did we believe on Mar 15 about May 1? (After it.)
			{Query: `VALIDTIME (DATE '2011-05-01') AND TRANSACTIONTIME (DATE '2011-03-15') SELECT title FROM position`,
				Coalesce: true,
				Expect:   []string{"2011-05-01|2011-05-02|manager"}},
			// How did our belief about today evolve? Transaction-time
			// slice with valid time pinned to the current instant.
			{Query: `TRANSACTIONTIME (DATE '2011-01-01', DATE '2011-05-01') SELECT title FROM position`,
				Coalesce: true,
				Expect: []string{
					"2011-01-10|2011-02-10|engineer",
					"2011-02-10|2011-05-01|manager",
				}},
			// The raw assertion history, both periods visible.
			{Query: `NONSEQUENCED TRANSACTIONTIME SELECT title, begin_time, end_time, tt_begin_time, tt_end_time FROM position`,
				Expect: []string{
					"engineer|2011-01-01|2011-07-01|2011-01-10|2011-02-10",
					"engineer|2011-01-01|2011-03-01|2011-02-10|9999-12-31",
					"manager|2011-03-01|2011-07-01|2011-02-10|9999-12-31",
				}},
		},
	},
	{
		// Schema migration: a valid-time table upgraded in place with
		// ALTER TABLE ... ADD TRANSACTIONTIME, then corrected — the
		// audit distinguishes pre- and post-migration beliefs.
		Name: "bitemporal-migration",
		Now:  Clock{2011, 1, 5},
		Setup: []Step{
			{Exec: `CREATE TABLE job (id CHAR(4), title CHAR(20)) AS VALIDTIME`},
			{Exec: `VALIDTIME (DATE '2011-01-01', DATE '2011-06-01') INSERT INTO job VALUES ('p1', 'engineer')`},
			// Migration on Feb 10: existing versions become believed
			// from the migration instant on.
			{SetNow: &Clock{2011, 2, 10}, Exec: `ALTER TABLE job ADD TRANSACTIONTIME`},
			// Post-migration correction on Mar 15.
			{SetNow: &Clock{2011, 3, 15},
				Exec: `VALIDTIME (DATE '2011-04-01', DATE '2011-06-01') UPDATE job SET title = 'manager' WHERE id = 'p1'`},
		},
		Steps: []Step{
			{SetNow: &Clock{2011, 5, 1},
				Query: `SELECT title FROM job`, Expect: []string{"manager"}},
			// Belief on Feb 20 (post-migration, pre-correction) about May 1.
			{Query: `VALIDTIME (DATE '2011-05-01') AND TRANSACTIONTIME (DATE '2011-02-20') SELECT title FROM job`,
				Coalesce: true,
				Expect:   []string{"2011-05-01|2011-05-02|engineer"}},
			// Today's belief about May 1.
			{Query: `VALIDTIME (DATE '2011-05-01') SELECT title FROM job`,
				Coalesce: true,
				Expect:   []string{"2011-05-01|2011-05-02|manager"}},
			{Query: `NONSEQUENCED TRANSACTIONTIME SELECT title, begin_time, end_time, tt_begin_time, tt_end_time FROM job`,
				Expect: []string{
					"engineer|2011-01-01|2011-06-01|2011-02-10|2011-03-15",
					"engineer|2011-01-01|2011-04-01|2011-03-15|9999-12-31",
					"manager|2011-04-01|2011-06-01|2011-03-15|9999-12-31",
				}},
		},
	},
	{
		// Mixed-dimension slicing: one statement reaching a valid-time
		// and a transaction-time table slices the dimension it names and
		// pins the other table to the current context.
		Name: "mixed-dimension-slicing",
		Now:  Clock{2024, 1, 1},
		Setup: []Step{
			{Exec: `CREATE TABLE account (id CHAR(10), balance FLOAT) AS TRANSACTIONTIME`},
			{Exec: `INSERT INTO account VALUES ('a1', 100.0)`},
			{Exec: `CREATE TABLE rate (id CHAR(10), r FLOAT) AS VALIDTIME`},
			{Exec: `VALIDTIME (DATE '2024-01-01', DATE '2024-03-01') INSERT INTO rate VALUES ('a1', 0.05)`},
			{SetNow: &Clock{2024, 2, 1}, Exec: `UPDATE account SET balance = 150.0 WHERE id = 'a1'`},
		},
		Steps: []Step{
			// Valid-time slice: rate is sliced, account contributes its
			// currently believed balance.
			{SetNow: &Clock{2024, 2, 15},
				Query:    `VALIDTIME (DATE '2024-01-15', DATE '2024-02-15') SELECT r.r, a.balance FROM rate r, account a WHERE a.id = r.id`,
				Coalesce: true,
				Expect:   []string{"2024-01-15|2024-02-15|0.05|150.0"}},
			// Transaction-time slice: account's recorded history is
			// sliced, rate contributes its currently valid rate.
			{Query: `TRANSACTIONTIME (DATE '2024-01-01', DATE '2024-03-01') SELECT a.balance, r.r FROM account a, rate r WHERE a.id = r.id`,
				Coalesce: true,
				Expect: []string{
					"2024-01-01|2024-02-01|100.0|0.05",
					"2024-02-01|2024-03-01|150.0|0.05",
				}},
		},
	},
	{
		// The still-invalid forms: transaction time stays
		// system-maintained and append-only on bitemporal tables too.
		Name: "bitemporal-rejections",
		Now:  Clock{2011, 1, 10},
		Setup: []Step{
			{Exec: `CREATE TABLE position (id CHAR(4), title CHAR(20)) AS VALIDTIME AS TRANSACTIONTIME`},
			{Exec: `VALIDTIME (DATE '2011-01-01', DATE '2011-07-01') INSERT INTO position VALUES ('p1', 'engineer')`},
		},
		Steps: []Step{
			// Manual transaction timestamps.
			{Exec: `NONSEQUENCED VALIDTIME INSERT INTO position (id, title, begin_time, end_time, tt_begin_time, tt_end_time)
				VALUES ('p2', 'intern', DATE '2011-01-01', DATE '2011-02-01', DATE '2000-01-01', DATE '2001-01-01')`,
				ExpectErr: "system-maintained"},
			// Rewriting the recorded past.
			{Exec: `TRANSACTIONTIME (DATE '2011-01-01', DATE '2011-02-01') DELETE FROM position`,
				ExpectErr: "audit past"},
			// Modifications always apply to the current belief.
			{Exec: `VALIDTIME (DATE '2011-02-01', DATE '2011-03-01') AND TRANSACTIONTIME (DATE '2011-01-05') DELETE FROM position`,
				ExpectErr: "current belief"},
			// Nonsequenced period surgery is insert-only on bitemporal tables.
			{Exec: `NONSEQUENCED VALIDTIME DELETE FROM position WHERE id = 'p1'`,
				ExpectErr: "only top-level INSERT"},
			// The table is still intact and queryable afterwards.
			{Query: `SELECT title FROM position`, Expect: []string{"engineer"}},
		},
	},
	{
		// Routine calls that PERST turns into FROM-clause table
		// functions: authors_in('Japan') has a constant argument vector
		// (loaded once, like any source), author_name(ia.author_id) is
		// correlated with the outer row (executed once per distinct
		// author, repeats served from the statement memo). MAX evaluates
		// both as scalar calls per constant period, so cross-axis row
		// agreement checks the table-function paths against it.
		Name: "table-function-calls",
		Now:  Clock{2011, 1, 1},
		Setup: []Step{
			{Exec: `CREATE TABLE author (author_id CHAR(4), name CHAR(20), country CHAR(10)) AS VALIDTIME`},
			{Exec: `CREATE TABLE item_author (item_id CHAR(4), author_id CHAR(4)) AS VALIDTIME`},
			{Exec: `NONSEQUENCED VALIDTIME INSERT INTO author VALUES
				('a1', 'Ben', 'UK', DATE '2010-01-01', DATE '2010-07-01'),
				('a1', 'Benjamin', 'UK', DATE '2010-07-01', DATE '9999-12-31'),
				('a2', 'Amy', 'Japan', DATE '2010-01-01', DATE '9999-12-31'),
				('a3', 'Cy', 'Japan', DATE '2010-03-01', DATE '2010-09-01')`},
			{Exec: `NONSEQUENCED VALIDTIME INSERT INTO item_author VALUES
				('i1', 'a1', DATE '2010-01-01', DATE '9999-12-31'),
				('i2', 'a1', DATE '2010-01-01', DATE '9999-12-31'),
				('i3', 'a2', DATE '2010-01-01', DATE '9999-12-31'),
				('i4', 'a3', DATE '2010-03-01', DATE '2010-09-01')`},
			{Exec: `CREATE FUNCTION author_name (aid CHAR(4)) RETURNS CHAR(20) READS SQL DATA LANGUAGE SQL
				BEGIN
				  DECLARE nm CHAR(20);
				  SET nm = (SELECT name FROM author WHERE author_id = aid);
				  RETURN nm;
				END`},
			{Exec: `CREATE FUNCTION authors_in (cty CHAR(10)) RETURNS INTEGER READS SQL DATA LANGUAGE SQL
				BEGIN
				  DECLARE done INTEGER DEFAULT 0;
				  DECLARE n INTEGER DEFAULT 0;
				  DECLARE nm CHAR(20) DEFAULT '';
				  DECLARE cur CURSOR FOR SELECT name FROM author WHERE country = cty;
				  DECLARE CONTINUE HANDLER FOR NOT FOUND SET done = 1;
				  OPEN cur;
				  lp: LOOP
				    FETCH cur INTO nm;
				    IF done = 1 THEN
				      LEAVE lp;
				    END IF;
				    SET n = n + 1;
				  END LOOP lp;
				  CLOSE cur;
				  RETURN n;
				END`},
		},
		Steps: []Step{
			{Query: `VALIDTIME (DATE '2010-01-01', DATE '2011-01-01') SELECT ia.item_id, author_name(ia.author_id) FROM item_author ia`,
				Coalesce: true,
				Expect: []string{
					"2010-01-01|2010-07-01|i1|Ben",
					"2010-07-01|2011-01-01|i1|Benjamin",
					"2010-01-01|2010-07-01|i2|Ben",
					"2010-07-01|2011-01-01|i2|Benjamin",
					"2010-01-01|2011-01-01|i3|Amy",
					"2010-03-01|2010-09-01|i4|Cy",
				}},
			{Query: `VALIDTIME (DATE '2010-01-01', DATE '2011-01-01') SELECT ia.item_id FROM item_author ia WHERE authors_in('Japan') > 1`,
				Coalesce: true,
				Expect: []string{
					"2010-03-01|2010-09-01|i1",
					"2010-03-01|2010-09-01|i2",
					"2010-03-01|2010-09-01|i3",
					"2010-03-01|2010-09-01|i4",
				}},
		},
	},
}
