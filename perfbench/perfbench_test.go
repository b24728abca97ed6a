package main

import (
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"
)

func sqlOf(ss []Stmt) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.SQL
	}
	return out
}

func take(t *testing.T, workload string, seed int64, n int) []Stmt {
	t.Helper()
	g, err := NewGenerator(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	return Take(g, n)
}

func TestGeneratorSeeded(t *testing.T) {
	for _, w := range []string{"hot-window", "history-scan", "write-mix"} {
		a, b := take(t, w, 7, 400), take(t, w, 7, 400)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different statement lists", w)
		}
		if c := take(t, w, 8, 400); reflect.DeepEqual(sqlOf(a), sqlOf(c)) {
			t.Errorf("%s: seeds 7 and 8 gave the same statement list", w)
		}
	}
}

func TestGeneratorShapes(t *testing.T) {
	pool := HotPool(1)
	distinct := map[string]bool{}
	for _, s := range pool {
		distinct[s.SQL] = true
	}
	if len(pool) != 192 || len(distinct) != 192 {
		t.Fatalf("hot pool: %d statements, %d distinct; want 192", len(pool), len(distinct))
	}
	inPool := map[string]bool{}
	for k := 0; k < Shards("hot-window"); k++ {
		for _, s := range HotPool(ShardSeed(1, k)) {
			inPool[poolKey(k, s.SQL)] = true
		}
	}
	perQW := map[string]int{}
	for _, s := range take(t, "hot-window", 1, 480) {
		if !inPool[poolKey(s.Shard, s.SQL)] {
			t.Fatalf("hot-window statement not in its shard's pool: %q", s.SQL)
		}
		perQW[fmt.Sprint(s.Name, s.End-s.Begin)]++
	}
	for qw, n := range perQW {
		if n != 10 {
			t.Fatalf("hot-window: %s drawn %d times in 10 rounds, want 10", qw, n)
		}
	}
	seen := map[string]bool{}
	for _, s := range take(t, "history-scan", 1, 1000) {
		if seen[s.SQL] {
			t.Fatalf("history-scan repeated %q", s.SQL)
		}
		seen[s.SQL] = true
		if s.End-s.Begin != historyDays {
			t.Fatalf("history-scan context of %d days", s.End-s.Begin)
		}
	}
	writes := 0
	for _, s := range take(t, "write-mix", 1, 400) {
		if s.Write() {
			writes++
		}
	}
	if writes != 200 {
		t.Fatalf("write-mix: %d writes in 400 statements, want 200", writes)
	}
}

// The database receives exactly the generated statements: the SQL the
// timed loop sends is the generator's list, and the database counts
// one statement per generated statement and no more.
func TestProgramReceivesOnlyGeneratedSQL(t *testing.T) {
	const n = 60
	var sent []string
	out, err := Run(Config{Workload: "hot-window", Seed: 3, Stmts: n,
		Par: runtime.NumCPU(), WorkDir: t.TempDir(), Log: io.Discard,
		OnExec: func(sql string) { sent = append(sent, sql) }})
	if err != nil {
		t.Fatal(err)
	}
	if want := sqlOf(take(t, "hot-window", 3, n)); !reflect.DeepEqual(sent, want) {
		t.Fatalf("sent SQL differs from the generated list")
	}
	if out.Attempted != n || out.Received != n || !out.Correct {
		t.Fatalf("attempted %d, received %d, correct %v; want %d, %d, true", out.Attempted, out.Received, out.Correct, n, n)
	}
}

func metricMap(o *Outcome) map[string]float64 {
	m := map[string]float64{}
	for _, x := range o.Metrics {
		m[x.Name] = x.Value
	}
	return m
}

// exactCounters repeat exactly for one seed and statement count, with
// or without parallel fragment evaluation.
var exactCounters = []string{
	"engine.routine_calls_per_stmt", "core.translated_bytes", "cp.periods_per_stmt",
	"wal.bytes_per_write", "wal.effects_per_write",
}

// inexactCounters depend on how parallel fragment workers are
// scheduled: they repeat only when fragments evaluate serially.
var inexactCounters = []string{"engine.rows_scanned_per_stmt", "engine.plan_reuse_hits_per_stmt"}

func tracedRun(t *testing.T, par int) map[string]float64 {
	t.Helper()
	out, err := Run(Config{Workload: "write-mix", Seed: 5, Stmts: 120, Trace: true,
		Par: par, WorkDir: t.TempDir(), Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Correct {
		t.Fatalf("run failed its oracles")
	}
	return metricMap(out)
}

func TestCounterExactness(t *testing.T) {
	if testing.Short() {
		t.Skip("runs write-mix three times")
	}
	par := runtime.NumCPU()
	a, b := tracedRun(t, par), tracedRun(t, par)
	for _, name := range exactCounters {
		if a[name] != b[name] || a[name] == 0 {
			t.Errorf("%s: %v then %v; want the same nonzero value", name, a[name], b[name])
		}
	}
	serial := tracedRun(t, 1)
	for _, name := range exactCounters {
		if serial[name] != a[name] {
			t.Errorf("%s: %v serial, %v with %d workers", name, serial[name], a[name], par)
		}
	}
	for _, name := range inexactCounters {
		t.Logf("%s (inexact): %d workers %v and %v, serial %v", name, par, a[name], b[name], serial[name])
	}
}

func TestSampleDays(t *testing.T) {
	for _, c := range []struct {
		n    int64
		want []int64
	}{{1, []int64{0}}, {3, []int64{0, 1, 2}}, {7, []int64{0, 1, 3, 4, 6}}, {30, []int64{0, 7, 14, 21, 29}}} {
		if got := sampleDays(100, 100+c.n); !reflect.DeepEqual(got, offsets(100, c.want)) {
			t.Errorf("sampleDays over %d days = %v, want offsets %v", c.n, got, c.want)
		}
	}
}

func offsets(base int64, xs []int64) []int64 {
	out := make([]int64, len(xs))
	for i, x := range xs {
		out[i] = base + x
	}
	return out
}
