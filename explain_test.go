package taupsm

import (
	"strings"
	"testing"

	"taupsm/internal/obs"
)

// EXPLAIN on a sequenced query reports the plan and the exact slicing
// statistics without executing anything.
func TestExplainSequencedWithoutExecuting(t *testing.T) {
	db := paperDB(t)
	db.SetStrategy(Max)
	engBase := db.Metrics().Value("engine.statements_total")
	e, err := db.Explain(`VALIDTIME (DATE '2010-01-01', DATE '2011-01-01') SELECT title FROM item`)
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != "sequenced" {
		t.Fatalf("kind = %q, want sequenced", e.Kind)
	}
	if e.Strategy != Max {
		t.Fatalf("strategy = %v, want MAX", e.Strategy)
	}
	if len(e.TemporalTables) != 1 || e.TemporalTables[0] != "item" {
		t.Fatalf("temporal tables = %v, want [item]", e.TemporalTables)
	}
	if e.ContextBegin != "2010-01-01" || e.ContextEnd != "2011-01-01" {
		t.Fatalf("context = [%s, %s), want [2010-01-01, 2011-01-01)", e.ContextBegin, e.ContextEnd)
	}
	// item holds 3 rows, all overlapping the context.
	if e.Fragments != 3 {
		t.Fatalf("fragments = %d, want 3", e.Fragments)
	}
	// item's instants inside the context — 01-01, 03-01, 05-01, 09-01,
	// 2011-01-01 — yield 4 constant periods.
	if e.ConstantPeriods != 4 {
		t.Fatalf("constant periods = %d, want 4", e.ConstantPeriods)
	}
	if e.SQL == "" {
		t.Fatal("empty plan SQL")
	}
	// Nothing executed: the engine never saw a statement.
	if n := db.Metrics().Value("engine.statements_total") - engBase; n != 0 {
		t.Fatalf("EXPLAIN executed %d engine statements, want 0", n)
	}
	if n := db.Metrics().Value("stratum.explain_total"); n != 1 {
		t.Fatalf("stratum.explain_total = %d, want 1", n)
	}
}

// The acceptance criterion: EXPLAIN's constant-period and fragment
// counts match what execution then reports through DB.Metrics.
func TestExplainMatchesExecution(t *testing.T) {
	db := paperDB(t)
	db.SetStrategy(Max)
	db.SetTracer(&obs.Collector{}) // fragment accounting is detailed-mode
	const q = `VALIDTIME (DATE '2010-01-01', DATE '2011-01-01')
		SELECT i.title FROM item i, item_author ia
		WHERE i.id = ia.item_id AND get_author_name(ia.author_id) = 'Ben'`

	m := db.Metrics()
	engBase := m.Value("engine.statements_total")
	e, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if e.ConstantPeriods == 0 || e.Fragments == 0 {
		t.Fatalf("trivial explanation: %+v", e)
	}
	if n := m.Value("engine.statements_total") - engBase; n != 0 {
		t.Fatalf("EXPLAIN executed %d engine statements, want 0", n)
	}

	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	if got := m.Value("stratum.constant_periods"); got != int64(e.ConstantPeriods) {
		t.Fatalf("execution computed %d constant periods, EXPLAIN said %d", got, e.ConstantPeriods)
	}
	if got := m.Value("stratum.fragments"); got != int64(e.Fragments) {
		t.Fatalf("execution evaluated %d fragments, EXPLAIN said %d", got, e.Fragments)
	}
	if got := m.Value("stratum.strategy.max_total"); got != 1 {
		t.Fatalf("stratum.strategy.max_total = %d, want 1", got)
	}
}

// The SQL-level EXPLAIN statement returns the explanation as a
// two-column result set (golden test).
func TestExplainStatementGolden(t *testing.T) {
	db := Open()
	db.SetNow(2010, 6, 15)
	db.SetStrategy(Max)
	db.SetParallelism(4) // pin: the default degree is machine-dependent
	db.MustExec(`
CREATE TABLE author (author_id CHAR(10), first_name CHAR(50)) AS VALIDTIME;
NONSEQUENCED VALIDTIME INSERT INTO author VALUES
  ('a1', 'Ben', DATE '2010-01-01', DATE '2010-07-01'),
  ('a2', 'Amy', DATE '2010-03-01', DATE '2010-05-01');
`)
	res, err := db.Query(`EXPLAIN VALIDTIME (DATE '2010-01-01', DATE '2010-07-01') SELECT first_name FROM author`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"kind|sequenced",
		"strategy|MAX",
		"context|[2010-01-01, 2010-07-01)",
		"temporal_tables|author",
		"reads|author[validtime]",
		"constant_periods|3",
		"fragments|2",
		"parallelism|3",
		"translation_cache|miss",
		"cp_cache|miss",
		"plan_reuse|new",
		"plan|DROP TABLE IF EXISTS taupsm_ts;",
		"|DROP TABLE IF EXISTS taupsm_cp;",
		"|CREATE TEMPORARY TABLE taupsm_ts (time_point DATE);",
		"|INSERT INTO taupsm_ts SELECT begin_time AS time_point FROM author UNION SELECT end_time AS time_point FROM author UNION VALUES (DATE '2010-01-01'), (DATE '2010-07-01');",
		"|CREATE TEMPORARY TABLE taupsm_cp AS (SELECT ts1.time_point AS begin_time, ts2.time_point AS end_time FROM taupsm_ts AS ts1, taupsm_ts AS ts2 WHERE ts1.time_point < ts2.time_point AND DATE '2010-01-01' <= ts1.time_point AND ts1.time_point < DATE '2010-07-01' AND ts2.time_point <= DATE '2010-07-01' AND NOT EXISTS (SELECT time_point FROM taupsm_ts AS ts3 WHERE ts1.time_point < ts3.time_point AND ts3.time_point < ts2.time_point)) WITH DATA;",
		"|SELECT cp.begin_time AS begin_time, cp.end_time AS end_time, first_name FROM taupsm_cp AS cp, author WHERE author.begin_time <= cp.begin_time AND cp.begin_time < author.end_time;",
		"|DROP TABLE IF EXISTS taupsm_ts;",
		"|DROP TABLE IF EXISTS taupsm_cp;",
	}
	if cols := strings.Join(res.Columns, "|"); cols != "property|value" {
		t.Fatalf("columns = %q, want property|value", cols)
	}
	var got []string
	for _, row := range res.Rows {
		got = append(got, row[0].String()+"|"+row[1].String())
	}
	if len(got) != len(want) {
		t.Fatalf("golden mismatch:\n--- got ---\n%s\n--- want ---\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d:\n got %q\nwant %q", i, got[i], want[i])
		}
	}
}

// EXPLAIN reports the planned parallelism degree and whether the
// translation and constant-period caches would hit, without touching
// either cache or its counters; after an execution warms the caches
// the same EXPLAIN reports hits, and DML on a referenced table turns
// them back into misses.
func TestExplainCacheAndParallelism(t *testing.T) {
	db := paperDB(t)
	db.SetStrategy(Max)
	db.SetParallelism(4)
	m := db.Metrics()
	const q = `VALIDTIME (DATE '2010-01-01', DATE '2011-01-01') SELECT title FROM item`

	counters := func() [4]int64 {
		return [4]int64{
			m.Value("stratum.cache.translation_hits_total"),
			m.Value("stratum.cache.translation_misses_total"),
			m.Value("stratum.cache.cp_hits_total"),
			m.Value("stratum.cache.cp_misses_total"),
		}
	}

	before := counters()
	e, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if e.TranslationCacheHit || e.CPCacheHit {
		t.Fatalf("cold caches reported as hits: %+v", e)
	}
	if want := min(4, e.ConstantPeriods); e.Parallelism != want {
		t.Fatalf("parallelism = %d, want %d (degree 4, %d periods)", e.Parallelism, want, e.ConstantPeriods)
	}
	if counters() != before {
		t.Fatalf("EXPLAIN moved cache counters: %v -> %v", before, counters())
	}

	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	e, err = db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !e.TranslationCacheHit || !e.CPCacheHit {
		t.Fatalf("warm caches reported as misses: %+v", e)
	}
	if m.Value("stratum.parallel.statements_total") == 0 {
		t.Fatal("parallel path not taken despite EXPLAIN planning it")
	}

	// DML on a referenced table invalidates both caches (the Auto
	// heuristic and the constant periods depend on the rows).
	db.MustExec(`NONSEQUENCED VALIDTIME INSERT INTO item VALUES ('i9', 'New', DATE '2010-02-01', DATE '2010-04-01')`)
	e, err = db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if e.TranslationCacheHit || e.CPCacheHit {
		t.Fatalf("caches survived DML on a referenced table: %+v", e)
	}

	// Serial settings plan a degree of 1.
	db.SetParallelism(1)
	e, err = db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if e.Parallelism != 1 {
		t.Fatalf("parallelism = %d with a serial setting, want 1", e.Parallelism)
	}
}

// Regression test for EXPLAIN re-running the static analyzer per call:
// the lint section is served from the statement-text cache, so repeated
// EXPLAIN of one statement moves stratum.lint.analysis_runs_total
// exactly once; a catalog change invalidates and recounts.
func TestExplainServesLintFromCache(t *testing.T) {
	db := paperDB(t)
	db.SetStrategy(Max)
	m := db.Metrics()
	const q = `VALIDTIME (DATE '2010-01-01', DATE '2011-01-01') SELECT title FROM item`

	if _, err := db.Explain(q); err != nil {
		t.Fatal(err)
	}
	runs := m.Value("stratum.lint.analysis_runs_total")
	if runs == 0 {
		t.Fatal("first EXPLAIN ran no analysis")
	}
	for i := 0; i < 3; i++ {
		if _, err := db.Explain(q); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Value("stratum.lint.analysis_runs_total"); got != runs {
		t.Fatalf("repeated EXPLAIN re-ran the analysis: %d runs, want %d", got, runs)
	}
	if hits := m.Value("stratum.lint.cache_hits_total"); hits < 3 {
		t.Fatalf("lint cache hits = %d, want >= 3", hits)
	}

	// A catalog change invalidates the cached findings.
	db.MustExec(`CREATE TABLE other (x CHAR(3))`)
	base := m.Value("stratum.lint.analysis_runs_total")
	if _, err := db.Explain(q); err != nil {
		t.Fatal(err)
	}
	if got := m.Value("stratum.lint.analysis_runs_total"); got != base+1 {
		t.Fatalf("post-DDL EXPLAIN analysis runs = %d, want %d", got, base+1)
	}
}

// EXPLAIN of a current statement reports the kind and plan, no slicing
// stats.
func TestExplainCurrentStatement(t *testing.T) {
	db := paperDB(t)
	e, err := db.Explain(`SELECT title FROM item`)
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != "current" {
		t.Fatalf("kind = %q, want current", e.Kind)
	}
	if e.ConstantPeriods != 0 || e.Fragments != 0 {
		t.Fatalf("current statement has slicing stats: %+v", e)
	}
	if e.SQL == "" {
		t.Fatal("empty plan SQL")
	}
}

// EXPLAIN cannot nest.
func TestExplainNested(t *testing.T) {
	if _, err := paperDB(t).Exec(`EXPLAIN EXPLAIN SELECT title FROM item`); err == nil {
		t.Fatal("nested EXPLAIN accepted")
	}
}

// With the Auto strategy, EXPLAIN reports the §VII-F clause that
// decided, and execution records the same decision in the metrics.
func TestAutoStrategyMetrics(t *testing.T) {
	db := paperDB(t) // 9 temporal rows: a small database
	m := db.Metrics()

	// Short context on a small database: clause (c) picks MAX.
	short := `VALIDTIME (DATE '2010-06-01', DATE '2010-06-05') SELECT title FROM item`
	e, err := db.Explain(short)
	if err != nil {
		t.Fatal(err)
	}
	if e.Strategy != Max || e.AutoReason != "short_context" {
		t.Fatalf("short context: (%v, %q), want (MAX, short_context)", e.Strategy, e.AutoReason)
	}
	if _, err := db.Query(short); err != nil {
		t.Fatal(err)
	}

	// Year-long context: no clause fires, PERST by default.
	long := `VALIDTIME (DATE '2010-01-01', DATE '2011-01-01') SELECT title FROM item`
	e, err = db.Explain(long)
	if err != nil {
		t.Fatal(err)
	}
	if e.Strategy != PerStatement || e.AutoReason != "perst_default" {
		t.Fatalf("long context: (%v, %q), want (PERST, perst_default)", e.Strategy, e.AutoReason)
	}
	if _, err := db.Query(long); err != nil {
		t.Fatal(err)
	}

	// EXPLAIN resolves Auto but only executions record decisions, so
	// the decision counters reflect actual statement runs.
	for name, want := range map[string]int64{
		"stratum.auto.decisions_total":            2,
		"stratum.auto.reason.short_context_total": 1,
		"stratum.auto.reason.perst_default_total": 1,
		"stratum.strategy.max_total":              1,
		"stratum.strategy.perst_total":            1,
		"stratum.statements.sequenced_total":      2,
		"stratum.explain_total":                   2,
	} {
		if got := m.Value(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// Statement kinds, engine work, and phase latencies all land in the
// metrics registry; spans arrive at an attached tracer.
func TestStatementMetricsAndSpans(t *testing.T) {
	db := paperDB(t)
	col := &obs.Collector{}
	db.SetTracer(col)
	m := db.Metrics()
	base := map[string]int64{}
	for _, name := range []string{
		"stratum.statements_total",
		"stratum.statements.current_total",
		"stratum.statements.sequenced_total",
		"stratum.statements.nonsequenced_total",
	} {
		base[name] = m.Value(name)
	}

	if _, err := db.Query(`SELECT title FROM item`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`VALIDTIME SELECT title FROM item`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`NONSEQUENCED VALIDTIME SELECT title FROM item`); err != nil {
		t.Fatal(err)
	}

	for name, want := range map[string]int64{
		"stratum.statements_total":              3,
		"stratum.statements.current_total":      1,
		"stratum.statements.sequenced_total":    1,
		"stratum.statements.nonsequenced_total": 1,
	} {
		if got := m.Value(name) - base[name]; got != want {
			t.Errorf("%s delta = %d, want %d", name, got, want)
		}
	}
	if m.Value("engine.rows_returned_total") == 0 {
		t.Error("engine.rows_returned_total = 0, want > 0")
	}
	if m.Value("engine.rows_scanned_total") == 0 {
		t.Error("engine.rows_scanned_total = 0, want > 0")
	}
	for _, span := range []string{"stratum.parse", "stratum.translate", "stratum.execute"} {
		if len(col.SpansNamed(span)) < 3 {
			t.Errorf("%s spans = %d, want >= 3", span, len(col.SpansNamed(span)))
		}
	}
	// The exposition renders every recorded series.
	text := m.String()
	for _, name := range []string{
		"stratum.statements_total", "stratum.parse_ns", "engine.rows_scanned_total",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("metrics exposition missing %s:\n%s", name, text)
		}
	}
}

// Routine invocations are counted always and timed when a tracer is
// attached.
func TestRoutineObservability(t *testing.T) {
	db := paperDB(t)
	col := &obs.Collector{}
	db.SetTracer(col)
	if _, err := db.Query(`
		SELECT i.title FROM item i, item_author ia
		WHERE i.id = ia.item_id AND get_author_name(ia.author_id) = 'Ben'`); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	calls := m.Value("engine.routine_calls_total")
	if calls == 0 {
		t.Fatal("engine.routine_calls_total = 0, want > 0")
	}
	spans := col.SpansNamed("engine.routine")
	if int64(len(spans)) != calls {
		t.Fatalf("engine.routine spans = %d, routine_calls_total = %d", len(spans), calls)
	}
	if got := m.Histogram("engine.routine_ns").Count(); got != calls {
		t.Fatalf("engine.routine_ns count = %d, want %d", got, calls)
	}
}

// Regression test for EXPLAIN ANALYZE counter drift under plan reuse:
// actual_plan_reuse reports the statement's own execution, not the
// prepared plan's lifetime total — so repeated runs of the same
// statement show stable values, not a growing sum. The
// plan_reuse row itself flips from "new" to "reuse" once the first
// execution populates the shared plan.
func TestExplainAnalyzeCountersPerStatement(t *testing.T) {
	db := paperDB(t)
	db.SetStrategy(Max)
	const q = `EXPLAIN ANALYZE VALIDTIME (DATE '2010-01-01', DATE '2011-01-01')
		SELECT i.title FROM item i, item_author ia WHERE i.id = ia.item_id`

	type runInfo struct{ planReuse, hits string }
	run := func() runInfo {
		t.Helper()
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		var info runInfo
		for _, row := range res.Rows {
			switch row[0].String() {
			case "plan_reuse":
				info.planReuse = row[1].String()
			case "actual_plan_reuse":
				info.hits = row[1].String()
			}
		}
		if info.hits == "" {
			t.Fatalf("EXPLAIN ANALYZE emitted no actual counter rows: %+v", info)
		}
		return info
	}

	first := run()
	if first.planReuse != "new" {
		t.Fatalf("cold plan_reuse = %q, want new", first.planReuse)
	}
	second := run()
	if second.planReuse != "reuse" {
		t.Fatalf("warm plan_reuse = %q, want reuse", second.planReuse)
	}
	if second.hits == "0" {
		t.Fatal("warm execution reported actual_plan_reuse = 0; the plan served nothing")
	}
	third := run()
	// The drift this guards against: counters accumulated over the plan's
	// lifetime would make every repeat larger than the last.
	if third.hits != second.hits {
		t.Fatalf("actual_plan_reuse drifted across identical runs: %s then %s (cumulative counters?)",
			second.hits, third.hits)
	}
}
