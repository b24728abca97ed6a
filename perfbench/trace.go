package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"taupsm"
	"taupsm/internal/check"
	"taupsm/internal/engine"
	"taupsm/internal/sqlparser"
)

// The traced run. Every other pair of timed statements is traced (pairs,
// so write-mix's alternating writes and reads both are): the
// benchmark arms the database's per-statement record (the slow-query
// log at a 1ns threshold), snapshots the counters the database exposes
// (DB.Metrics, Engine().Stats) around the call, and afterwards times
// direct calls into the front-end layers (sqlparser.ParseStatement,
// check.Check, DB.TranslateStmt) and an EXPLAIN of the statement. The
// statements in between run untraced, giving the in-process baseline
// for the tracing overhead and the allocation counts. Spans are kept
// in memory and written to WorkDir when the run ends.

// counters is a snapshot of what the database exposes.
type counters struct {
	eng        engine.Stats
	m          map[string]int64
	parse      time.Duration
	allocBytes uint64
	allocObjs  uint64
}

// exposed are the registry counters the per-layer metrics difference.
var exposed = []string{
	"stratum.cache.translation_hits_total", "stratum.cache.translation_misses_total",
	"stratum.cache.cp_hits_total", "stratum.cache.cp_misses_total",
	"stratum.strategy.max_total", "stratum.strategy.perst_total",
	"stratum.perst_fallback_total", "stratum.constant_periods_total",
	"stratum.parallel.statements_total", "stratum.parallel.fragments_total",
	"wal.append_bytes_total", "wal.effects_total", "wal.fsyncs_total",
	"stratum.lint.cache_hits_total", "stratum.lint.analysis_runs_total",
}

// span is one recorded interval. Stage spans inside taupsm.query are
// laid out in stage order from the statement's start, since the
// per-statement record gives their durations, not their offsets.
type span struct {
	Name    string `json:"name"`
	Trace   int64  `json:"trace"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer accumulates the traced run's spans and per-layer sums.
type tracer struct {
	db     *taupsm.DB // the database of the current statement
	log    bytes.Buffer
	t0     time.Time
	spans  []span
	nextID int64
	rt     []metrics.Sample
	gc0    [2]float64

	n, writes         int           // traced statements, traced writes
	tracedQ, untraceQ time.Duration // Query wall time, traced and untraced
	nUntraced         int
	allocBytes        uint64
	allocObjs         uint64

	parseProbe, lintProbe, transProbe time.Duration
	transBytes, fragments             int64
	lintHits, lintRuns                int64

	cp, engineT, attributed time.Duration
	writeQ, fsync           time.Duration
	fsyncs                  []float64 // µs per traced write
	eng                     engine.Stats
	delta                   map[string]int64
	gcShare                 float64
}

func newTracer() *tracer {
	return &tracer{
		delta: map[string]int64{},
		rt: []metrics.Sample{
			{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"},
			{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"},
		},
	}
}

func (t *tracer) readRuntime() {
	metrics.Read(t.rt)
}

func (t *tracer) cpu() [2]float64 {
	t.readRuntime()
	return [2]float64{t.rt[2].Value.Float64(), t.rt[3].Value.Float64()}
}

// begin and end bracket the timed phase.
func (t *tracer) begin() {
	t.t0 = time.Now()
	t.gc0 = t.cpu()
}

func (t *tracer) end() {
	c := t.cpu()
	if tot := c[1] - t.gc0[1]; tot > 0 {
		t.gcShare = (c[0] - t.gc0[0]) / tot
	}
}

func (t *tracer) snap() counters {
	c := counters{eng: t.db.Engine().Stats, m: map[string]int64{}}
	for _, name := range exposed {
		c.m[name] = t.db.Metrics().Value(name)
	}
	c.parse = t.db.Metrics().Histogram("stratum.parse_ns").Sum()
	return c
}

func (t *tracer) allocs() (uint64, uint64) {
	t.readRuntime()
	return t.rt[0].Value.Uint64(), t.rt[1].Value.Uint64()
}

// before snapshots the state a statement starts from; a traced
// statement also arms the per-statement record.
func (t *tracer) before(traced bool) counters {
	if !traced {
		var c counters
		c.allocBytes, c.allocObjs = t.allocs()
		return c
	}
	c := t.snap()
	t.log.Reset()
	t.db.SetSlowLog(&t.log, time.Nanosecond)
	return c
}

// after accounts one executed statement.
func (t *tracer) after(s Stmt, traced bool, start time.Time, d time.Duration, pre counters) {
	if !traced {
		b, o := t.allocs()
		t.allocBytes += b - pre.allocBytes
		t.allocObjs += o - pre.allocObjs
		t.nUntraced++
		t.untraceQ += d
		return
	}
	t.db.SetSlowLog(nil, 0)
	post := t.snap()
	t.n++
	t.tracedQ += d
	// A statement without a readable record keeps zero stage times, so
	// its whole duration counts as unattributed, which is what
	// bench.unattributed_pct is there to show.
	var ent taupsm.SlowLogEntry
	if line, err := bufio.NewReader(&t.log).ReadBytes('\n'); err == nil {
		_ = json.Unmarshal(line, &ent)
	}
	t.eng.Merge(engine.Stats{
		RoutineCalls:    post.eng.RoutineCalls - pre.eng.RoutineCalls,
		RoutineMemoHits: post.eng.RoutineMemoHits - pre.eng.RoutineMemoHits,
		RowsScanned:     post.eng.RowsScanned - pre.eng.RowsScanned,
		RowsReturned:    post.eng.RowsReturned - pre.eng.RowsReturned,
		Statements:      post.eng.Statements - pre.eng.Statements,
		LogWrites:       post.eng.LogWrites - pre.eng.LogWrites,
		IntervalProbes:  post.eng.IntervalProbes - pre.eng.IntervalProbes,
		PlanReuseHits:   post.eng.PlanReuseHits - pre.eng.PlanReuseHits,
		SweepJoins:      post.eng.SweepJoins - pre.eng.SweepJoins,
	})
	for _, name := range exposed {
		t.delta[name] += post.m[name] - pre.m[name]
	}

	// Stage spans under the statement, from the per-statement record
	// and the parse histogram.
	st := ent.Stages
	parse := post.parse - pre.parse
	cp := time.Duration(st.CPNS)
	exec := time.Duration(st.ExecuteNS)
	commit := time.Duration(st.CommitNS)
	fsync := time.Duration(st.FsyncNS)
	t.cp += cp
	t.engineT += exec - cp
	t.attributed += parse + time.Duration(st.LintNS) + time.Duration(st.TranslateNS) + exec + commit
	if s.Write() {
		t.writes++
		t.writeQ += d
		t.fsync += fsync
		t.fsyncs = append(t.fsyncs, float64(fsync)/1e3)
	}
	trace := int64(t.n)
	root := t.add("bench.statement", trace, 0, start, 0)
	q := t.add("taupsm.query", trace, root, start, d)
	at := start
	for _, stage := range []struct {
		name string
		d    time.Duration
	}{{"stratum.parse", parse}, {"stratum.lint", time.Duration(st.LintNS)}, {"stratum.translate", time.Duration(st.TranslateNS)}} {
		if stage.d > 0 {
			t.add(stage.name, trace, q, at, stage.d)
			at = at.Add(stage.d)
		}
	}
	if exec > 0 {
		x := t.add("stratum.execute", trace, q, at, exec)
		if cp > 0 {
			t.add("cp", trace, x, at, cp)
		}
		t.add("engine", trace, x, at.Add(cp), exec-cp)
		at = at.Add(exec)
	}
	if commit > 0 {
		c := t.add("wal.commit", trace, q, at, commit)
		t.add("wal.fsync", trace, c, at.Add(commit-fsync), fsync)
	}
	t.probe(s, ent.Strategy, trace, root)
	t.spans[root-1].EndNS = time.Since(t.t0).Nanoseconds()
}

// probe times direct calls into the front-end layers and an EXPLAIN
// of the statement, after it ran.
func (t *tracer) probe(s Stmt, strategy string, trace, root int64) {
	start := time.Now()
	stmt, err := sqlparser.ParseStatement(s.SQL)
	d := time.Since(start)
	t.parseProbe += d
	t.add("sqlparser.parse", trace, root, start, d)
	if err != nil {
		return
	}
	start = time.Now()
	check.Check(check.FromStorage(t.db.Engine().Cat), stmt)
	d = time.Since(start)
	t.lintProbe += d
	t.add("check.lint", trace, root, start, d)

	strat := taupsm.Auto
	switch strategy {
	case taupsm.Max.String():
		strat = taupsm.Max
	case taupsm.PerStatement.String():
		strat = taupsm.PerStatement
	}
	start = time.Now()
	tr, err := t.db.TranslateStmt(stmt, strat)
	d = time.Since(start)
	t.transProbe += d
	t.add("core.translate", trace, root, start, d)
	if err == nil {
		t.transBytes += int64(len(tr.SQL()))
	}

	hits := t.db.Metrics().Value("stratum.lint.cache_hits_total")
	runs := t.db.Metrics().Value("stratum.lint.analysis_runs_total")
	start = time.Now()
	e, err := t.db.ExplainParsed(stmt)
	t.add("taupsm.explain", trace, root, start, time.Since(start))
	t.lintHits += t.db.Metrics().Value("stratum.lint.cache_hits_total") - hits
	t.lintRuns += t.db.Metrics().Value("stratum.lint.analysis_runs_total") - runs
	if err == nil {
		t.fragments += int64(e.Fragments)
	}
}

// add records a span and returns its ID; a zero duration leaves the
// end to be filled in by the caller.
func (t *tracer) add(name string, trace, parent int64, start time.Time, d time.Duration) int64 {
	t.nextID++
	s := span{Name: name, Trace: trace, ID: t.nextID, Parent: parent, StartNS: start.Sub(t.t0).Nanoseconds()}
	s.EndNS = s.StartNS + d.Nanoseconds()
	t.spans = append(t.spans, s)
	return t.nextID
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func perStmt(x int64, n int) float64 { return ratio(x, int64(n)) }

// metrics is the traced run's per-layer metric set.
func (t *tracer) metrics(b *bench) []Metric {
	path := filepath.Join(b.cfg.WorkDir, fmt.Sprintf("perfbench-trace-%s-%d.jsonl", b.cfg.Workload, b.cfg.Seed))
	if err := t.write(path); err != nil {
		b.checks = append(b.checks, failure{What: "span dump", Why: err.Error()})
	}
	n := t.n
	us := func(d time.Duration) float64 { return ratio(d.Nanoseconds(), int64(max(n, 1))) / 1e3 }
	dl := t.delta
	overhead := 0.0
	if t.nUntraced > 0 && n > 0 {
		traced := float64(t.tracedQ) / float64(n)
		untraced := float64(t.untraceQ) / float64(t.nUntraced)
		overhead = 100 * (traced/untraced - 1)
	}
	return []Metric{
		{"sqlparser.parse_us", "us", us(t.parseProbe)},
		{"check.lint_us", "us", us(t.lintProbe)},
		{"check.lint_cache_hit_ratio", "ratio", ratio(t.lintHits, t.lintHits+t.lintRuns)},
		{"core.translate_us", "us", us(t.transProbe)},
		{"core.translated_bytes", "bytes", perStmt(t.transBytes, n)},
		{"core.translation_cache_hit_ratio", "ratio", ratio(dl["stratum.cache.translation_hits_total"],
			dl["stratum.cache.translation_hits_total"]+dl["stratum.cache.translation_misses_total"])},
		{"core.max_share", "ratio", ratio(dl["stratum.strategy.max_total"],
			dl["stratum.strategy.max_total"]+dl["stratum.strategy.perst_total"])},
		{"core.perst_fallbacks_per_stmt", "count", perStmt(dl["stratum.perst_fallback_total"], n)},
		{"cp.us", "us", us(t.cp)},
		{"cp.periods_per_stmt", "count", perStmt(dl["stratum.constant_periods_total"], n)},
		{"cp.fragments_per_stmt", "count", perStmt(t.fragments, n)},
		{"cp.cache_hit_ratio", "ratio", ratio(dl["stratum.cache.cp_hits_total"],
			dl["stratum.cache.cp_hits_total"]+dl["stratum.cache.cp_misses_total"])},
		{"engine.execute_ms", "ms", us(t.engineT) / 1e3},
		{"engine.routine_calls_per_stmt", "count", perStmt(t.eng.RoutineCalls, n)},
		{"engine.memo_hit_ratio", "ratio", ratio(t.eng.RoutineMemoHits, t.eng.RoutineCalls)},
		{"engine.rows_scanned_per_stmt", "count", perStmt(t.eng.RowsScanned, n)},
		{"engine.rows_scanned_per_row_returned", "ratio", ratio(t.eng.RowsScanned, t.eng.RowsReturned)},
		{"engine.log_writes_per_stmt", "count", perStmt(t.eng.LogWrites, n)},
		{"engine.plan_reuse_hits_per_stmt", "count", perStmt(t.eng.PlanReuseHits, n)},
		{"engine.sweep_joins_per_stmt", "count", perStmt(t.eng.SweepJoins, n)},
		{"engine.interval_probes_per_stmt", "count", perStmt(t.eng.IntervalProbes, n)},
		{"engine.parallel_stmt_share", "ratio", perStmt(dl["stratum.parallel.statements_total"], n)},
		{"engine.parallel_fragments_per_stmt", "count", perStmt(dl["stratum.parallel.fragments_total"], n)},
		{"wal.bytes_per_write", "bytes", perStmt(dl["wal.append_bytes_total"], t.writes)},
		{"wal.effects_per_write", "count", perStmt(dl["wal.effects_total"], t.writes)},
		{"wal.fsyncs_per_write", "count", perStmt(dl["wal.fsyncs_total"], t.writes)},
		{"wal.fsync_us_p50", "us", percentile(t.fsyncs, 0.5)},
		{"wal.fsync_share", "ratio", ratio(t.fsync.Nanoseconds(), t.writeQ.Nanoseconds())},
		{"wal.recovery_s", "s", b.recoveryMed.Seconds()},
		{"wal.recovery_commits", "count", float64(b.recoveryCommits)},
		{"wal.replay_effects", "count", float64(b.recoveryEffts)},
		{"stats.analyze_ms", "ms", float64(b.analyzeMed) / 1e6},
		{"runtime.alloc_bytes_per_stmt", "bytes", perStmt(int64(t.allocBytes), t.nUntraced)},
		{"runtime.allocs_per_stmt", "count", perStmt(int64(t.allocObjs), t.nUntraced)},
		{"runtime.gc_cpu_share", "ratio", t.gcShare},
		{"bench.trace_overhead_pct", "%", overhead},
		{"bench.unattributed_pct", "%", 100 * ratio((t.tracedQ-t.attributed).Nanoseconds(), t.tracedQ.Nanoseconds())},
		{"bench.failed_ratio", "ratio", ratio(int64(b.failedStmts), int64(max(b.attempted, 1)))},
	}
}
