package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"taupsm"
	"taupsm/internal/taubench"
)

// Config is one benchmark run.
type Config struct {
	Workload string
	Seed     int64
	// Seconds is the measured duration, rounded up to whole rounds of
	// the workload's mix; Stmts, when positive, runs exactly that many
	// statements instead (the counter tests).
	Seconds time.Duration
	Stmts   int
	// Trace selects the traced run, which reports per-layer metrics.
	Trace bool
	// Par is the fragment worker-pool size (nproc).
	Par int
	// WorkDir holds write-mix's data directories and the span dump.
	WorkDir string
	// Log receives the human-readable summary and failure list.
	Log io.Writer
	// OnExec, when set, sees every SQL text the timed loop sends.
	OnExec func(sql string)
}

// agreeShard is the shard whose statements the MAX/PERST agreement
// oracle covers on the sharded workloads; commutativity covers every
// shard. (Forcing the strategy Auto rejected costs a full execution,
// often the slow one.)
const agreeShard = 0

// writeSetups is how many times write-mix builds its database;
// setup_s is the median and the last build is measured. The sharded
// workloads take one setup sample per shard.
const writeSetups = 3

// recoveryAt is the write count at which write-mix snapshots its data
// directory for the recovery measurement, so the replayed log has the
// same content whatever the run's speed; recoveryReps reopens of fresh
// copies give recovery_s as their median.
const (
	recoveryAt   = 400
	recoveryReps = 5
)

// env is one built database.
type env struct {
	seed    int64 // the shard's dataset seed
	db      *taupsm.DB
	dir     string
	setup   time.Duration
	analyze time.Duration
}

func (e *env) close() {
	e.db.Close()
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// failure is one statement or check that failed its oracle.
type failure struct {
	What, Why string
}

// bench is the state of one run.
type bench struct {
	cfg      Config
	envs     []*env // one per shard
	failures []failure
	checks   []failure // whole-run checks that failed (no statement)

	attempted, failedStmts int
	received               int64     // statements the database counted for the stream
	lat, readLat, writeLat []float64 // milliseconds
	opLat                  map[Op][]float64
	busy                   time.Duration

	verified  map[string]uint64 // hot-window: digest per verified statement
	history   []historyRecord
	prices    *priceModel
	readsSeen map[string]Stmt // write-mix: distinct reads, verified at the end
	recovery  string          // write-mix: copy of the data dir at recoveryAt writes

	tr *tracer // traced run only

	// Figures the summary and the metric sets read.
	setupMed, analyzeMed           time.Duration
	heapMB                         float64
	recoveryMed                    time.Duration
	recoveryCommits, recoveryEffts int
}

// Outcome is a finished run: the result line's fields.
type Outcome struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []Metric
	// Received is how many statements the database itself counted
	// while executing the stream (stratum.statements_total).
	Received int64
}

// Metric is one reported figure.
type Metric struct {
	Name  string
	Unit  string
	Value float64
}

// setup builds shard k's database up to its warm-up: generate
// DS1-SMALL with the shard's seed, install every query's routines,
// (write-mix) bulk load into a fresh data directory, checkpoint and
// build BT-SMALL through the statement path, and ANALYZE.
func (c Config) setup(k int) (*env, error) {
	start := time.Now()
	e := &env{seed: ShardSeed(c.Seed, k)}
	if c.Workload == "write-mix" {
		dir, err := os.MkdirTemp(c.WorkDir, "write-mix-")
		if err != nil {
			return nil, err
		}
		e.dir = dir
		if e.db, err = taupsm.OpenDir(dir); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
	} else {
		e.db = taupsm.Open()
	}
	fail := func(err error) (*env, error) {
		e.close()
		return nil, err
	}
	db := e.db
	db.SetNow(2011, 1, 1)
	db.SetParallelism(c.Par)
	spec := taubench.DS1(taubench.Small)
	spec.Seed = e.seed
	if _, err := taubench.Load(db, spec); err != nil {
		return fail(fmt.Errorf("load: %w", err))
	}
	if db.Persistent() {
		if err := db.Checkpoint(); err != nil {
			return fail(fmt.Errorf("checkpoint: %w", err))
		}
	}
	for _, q := range taubench.Queries() {
		if _, err := db.Exec(q.Routines); err != nil {
			return fail(fmt.Errorf("%s routines: %w", q.Name, err))
		}
	}
	if c.Workload == "write-mix" {
		if err := taubench.LoadBitemporal(db); err != nil {
			return fail(fmt.Errorf("bitemporal load: %w", err))
		}
	}
	t := time.Now()
	if _, err := db.Exec("ANALYZE"); err != nil {
		return fail(fmt.Errorf("analyze: %w", err))
	}
	e.analyze = time.Since(t)
	e.setup = time.Since(start)
	return e, nil
}

// warm runs the warm-up pass on a built database, adding its time to
// the build's.
func (c Config) warm(e *env) error {
	start := time.Now()
	err := c.warmupPass(e)
	e.setup += time.Since(start)
	return err
}

func (c Config) warmupPass(e *env) error {
	for _, s := range warmup(c.Workload, e.seed) {
		if _, err := e.db.Query(s.SQL); err != nil {
			return fmt.Errorf("warm-up %s: %w", s.Name, err)
		}
	}
	return nil
}

// warmup is the statement pass that fills the caches before timing:
// hot-window's pool, write-mix's read pool, and for history-scan one
// one-day statement per query (its timed statements never repeat, so
// only routine registration and first-use costs can be warmed).
func warmup(workload string, seed int64) []Stmt {
	switch workload {
	case "hot-window":
		return HotPool(seed)
	case "write-mix":
		return writeReads(seed)
	}
	var out []Stmt
	b := taubench.TimelineStart()
	for _, q := range taubench.Queries() {
		out = append(out, sequencedRead(q, b, b+1))
	}
	return out
}

// Run executes one benchmark run.
func Run(cfg Config) (*Outcome, error) {
	gen, err := NewGenerator(cfg.Workload, cfg.Seed)
	if err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg, verified: map[string]uint64{}, opLat: map[Op][]float64{}}
	defer func() {
		for _, e := range b.envs {
			e.close()
		}
	}()
	builds := Shards(cfg.Workload)
	if cfg.Workload == "write-mix" {
		builds = writeSetups
	}
	for i := 0; i < builds; i++ {
		k := i
		if cfg.Workload == "write-mix" {
			k = 0
		}
		e, err := cfg.setup(k)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		b.envs = append(b.envs, e)
	}
	var setups, analyzes []float64
	for _, e := range b.envs {
		if err := cfg.warm(e); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, e.setup.Seconds())
		analyzes = append(analyzes, e.analyze.Seconds())
	}
	if cfg.Workload == "hot-window" {
		if err := b.verifyPools(); err != nil {
			return nil, err
		}
	}
	if cfg.Workload == "write-mix" {
		for _, e := range b.envs[:builds-1] {
			e.close()
		}
		b.envs = b.envs[builds-1:]
	}
	b.setupMed = secs(median(setups))
	b.analyzeMed = secs(median(analyzes))
	if err := b.beforeTimed(); err != nil {
		return nil, err
	}
	if cfg.Trace {
		b.tr = newTracer()
	}

	runtime.GC()
	if b.tr != nil {
		b.tr.begin()
	}
	deadline := time.Now().Add(cfg.Seconds)
	for i := 0; ; i++ {
		if cfg.Stmts > 0 {
			if i >= cfg.Stmts {
				break
			}
		} else if gen.Boundary() && !time.Now().Before(deadline) {
			break
		}
		b.exec(gen.Next(), b.tr != nil && i/2%2 == 1)
	}
	if b.tr != nil {
		b.tr.end()
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.heapMB = float64(ms.HeapAlloc) / 1e6

	if err := b.afterTimed(); err != nil {
		return nil, err
	}
	return b.outcome(), nil
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// beforeTimed prepares the workload's oracle state on the measured
// database.
func (b *bench) beforeTimed() error {
	if b.cfg.Workload != "write-mix" {
		return nil
	}
	b.readsSeen = map[string]Stmt{}
	var err error
	b.prices, err = readPrices(b.envs[0].db)
	return err
}

// exec runs one statement of the timed loop and checks its result.
func (b *bench) exec(s Stmt, traced bool) {
	db := b.envs[s.Shard].db
	if s.Now != 0 {
		db.Engine().Now = s.Now
	}
	if b.cfg.OnExec != nil {
		b.cfg.OnExec(s.SQL)
	}
	var pre counters
	if b.tr != nil {
		b.tr.db = db
		pre = b.tr.before(traced)
	}
	m := db.Metrics()
	maxBefore, stmtsBefore := m.Value("stratum.strategy.max_total"), m.Value("stratum.statements_total")
	start := time.Now()
	res, err := db.Query(s.SQL)
	d := time.Since(start)
	maxRun := m.Value("stratum.strategy.max_total") > maxBefore
	b.received += m.Value("stratum.statements_total") - stmtsBefore
	if b.tr != nil {
		b.tr.after(s, traced, start, d, pre)
	}

	b.attempted++
	b.busy += d
	ms := float64(d) / 1e6
	b.lat = append(b.lat, ms)
	b.opLat[s.Op] = append(b.opLat[s.Op], ms)
	if s.Write() {
		b.writeLat = append(b.writeLat, ms)
	} else {
		b.readLat = append(b.readLat, ms)
	}
	if err != nil {
		b.fail(s, err.Error())
		return
	}
	if err := b.check(s, res, maxRun); err != nil {
		b.fail(s, err.Error())
	}
	if s.Write() && len(b.writeLat) == recoveryAt {
		b.snapshotDir()
	}
}

func (b *bench) fail(s Stmt, why string) {
	b.failedStmts++
	b.failures = append(b.failures, failure{What: s.SQL, Why: why})
}

// check applies the workload's per-statement oracle (untimed).
func (b *bench) check(s Stmt, res *taupsm.Result, maxRun bool) error {
	if s.Sequenced() && !s.Write() {
		if err := inContext(s, res); err != nil {
			return err
		}
	}
	switch b.cfg.Workload {
	case "hot-window":
		want, ok := b.verified[poolKey(s.Shard, s.SQL)]
		if !ok {
			return fmt.Errorf("statement was not verified")
		}
		if digest(res) != want {
			return fmt.Errorf("result differs from the verified result")
		}
	case "history-scan":
		days := sampleDays(s.Begin, s.End)
		b.history = append(b.history, historyRecord{s: s, maxRun: maxRun, days: days, slices: slicesAt(res, days)})
	case "write-mix":
		switch {
		case s.Op == OpPrice:
			b.prices.apply(s)
		case s.Op == OpRead:
			b.readsSeen[s.SQL] = s
			// One day per read, so a stale cached result after a write
			// is caught where it happens; every distinct read is
			// verified in full against the final state.
			d := s.Begin + int64(len(b.readLat))%(s.End-s.Begin)
			return commute(b.envs[0].db, s, []int64{d}, []string{timeslice(res, d)})
		case s.Op == OpBTRead:
			b.readsSeen[s.SQL] = s
		}
	}
	return nil
}

// verifyPools verifies every statement of every shard's hot pool and
// records its digest, then repeats the warm-up pass (untimed), since
// verification runs the current queries and forces strategies. Shards
// are independent databases, so they are verified concurrently, Par at
// a time.
func (b *bench) verifyPools() error {
	var mu sync.Mutex
	var wg sync.WaitGroup
	var warmErr error
	sem := make(chan struct{}, max(b.cfg.Par, 1))
	for k, e := range b.envs {
		wg.Add(1)
		go func(k int, e *env) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			for _, s := range HotPool(e.seed) {
				d, err := verifyRead(e.db, s, k == agreeShard)
				mu.Lock()
				if err != nil {
					b.checks = append(b.checks, failure{What: s.SQL, Why: "verification: " + err.Error()})
				} else {
					b.verified[poolKey(k, s.SQL)] = d
				}
				mu.Unlock()
			}
			if err := b.cfg.warmupPass(e); err != nil {
				mu.Lock()
				warmErr = err
				mu.Unlock()
			}
		}(k, e)
	}
	wg.Wait()
	return warmErr
}

func poolKey(shard int, sql string) string { return fmt.Sprint(shard, ":", sql) }

// snapshotDir copies write-mix's data directory (between statements,
// every commit already fsynced) for the recovery measurement.
func (b *bench) snapshotDir() {
	if b.envs[0].dir == "" || b.recovery != "" {
		return
	}
	dst, err := os.MkdirTemp(b.cfg.WorkDir, "recovery-")
	if err == nil {
		err = copyDir(b.envs[0].dir, dst)
	}
	if err != nil {
		b.checks = append(b.checks, failure{What: "recovery snapshot", Why: err.Error()})
		return
	}
	b.recovery = dst
}

func copyDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// afterTimed runs the oracles that need the whole run (untimed).
func (b *bench) afterTimed() error {
	switch b.cfg.Workload {
	case "history-scan":
		// The measured databases are closed first, so each oracle build
		// (same shard seed, same data) is the only one alive.
		for k, e := range b.envs {
			e.close()
			oracle, err := b.cfg.setup(k)
			if err == nil {
				err = b.cfg.warm(oracle)
			}
			if err != nil {
				return fmt.Errorf("oracle setup: %w", err)
			}
			b.envs[k] = oracle
			for _, r := range b.history {
				if r.s.Shard != k {
					continue
				}
				if err := verifyHistory(oracle.db, r, k == agreeShard); err != nil {
					b.fail(r.s, "oracle: "+err.Error())
				}
			}
		}
	case "write-mix":
		return b.finishWriteMix()
	}
	return nil
}

// finishWriteMix verifies every distinct read against the final state,
// compares the price model with a dump, closes the database, checks
// that reopening restores the same tables, and measures recovery.
func (b *bench) finishWriteMix() error {
	db := b.envs[0].db
	var reads []Stmt
	for _, s := range b.readsSeen {
		reads = append(reads, s)
	}
	sort.Slice(reads, func(i, j int) bool { return reads[i].SQL < reads[j].SQL })
	for _, s := range reads {
		var err error
		if s.Op == OpRead {
			_, err = verifyRead(db, s, true)
		} else {
			_, err = db.Query(s.SQL)
		}
		if err != nil {
			b.fail(s, "final-state verification: "+err.Error())
		}
	}
	got, err := readPrices(db)
	if err != nil {
		return err
	}
	if d := b.prices.diff(got); len(d) > 0 {
		b.checks = append(b.checks, failure{What: "price model", Why: strings.Join(d, "; ")})
	}
	before := dumpTables(db)
	if b.recovery == "" {
		b.snapshotDir() // the run ended before recoveryAt writes
	}
	if err := db.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	re, err := taupsm.OpenDir(b.envs[0].dir)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	after := dumpTables(re)
	re.Close()
	if strings.Join(before, "\n") != strings.Join(after, "\n") {
		b.checks = append(b.checks, failure{What: "reopen", Why: "tables differ after reopen: " + firstDiff(before, after)})
	}
	if b.recovery == "" {
		return nil
	}
	defer os.RemoveAll(b.recovery)
	var times []float64
	for i := 0; i < recoveryReps; i++ {
		dst, err := os.MkdirTemp(b.cfg.WorkDir, "reopen-")
		if err != nil {
			return err
		}
		if err := copyDir(b.recovery, dst); err != nil {
			os.RemoveAll(dst)
			return err
		}
		start := time.Now()
		rdb, err := taupsm.OpenDir(dst)
		d := time.Since(start)
		if err != nil {
			os.RemoveAll(dst)
			return fmt.Errorf("recovery: %w", err)
		}
		if b.tr != nil {
			b.tr.add("taupsm.reopen", 0, 0, start, d)
		}
		info := rdb.RecoveryInfo()
		b.recoveryCommits, b.recoveryEffts = info.Commits, info.Effects
		rdb.Close()
		os.RemoveAll(dst)
		times = append(times, d.Seconds())
	}
	b.recoveryMed = secs(median(times))
	return nil
}

// outcome assembles the result line and writes the summary.
func (b *bench) outcome() *Outcome {
	failed := b.failedStmts
	o := &Outcome{
		Correct:   failed == 0 && len(b.checks) == 0,
		Attempted: b.attempted,
		Failed:    failed,
		Received:  b.received,
	}
	if b.tr != nil {
		o.Metrics = b.tr.metrics(b)
	} else {
		o.Metrics = b.endToEnd()
	}
	b.summary(o)
	return o
}

// tailPercentile is the highest percentile each workload's run
// supports with at least ten statements beyond it. It is taken over
// every statement: on write-mix the p99 of the writes alone rests on
// about a dozen fsync- and GC-bound outliers and swung by a factor of
// two between runs of the same code, so it is reported only in the
// summary.
func tailPercentile(workload string) float64 {
	if workload == "history-scan" {
		return 0.90
	}
	return 0.99
}

// recordLat is the statement class the latency metrics describe: every
// statement on the read-only workloads, the DML on write-mix (its
// reads repeat hot-window's pool and show in throughput_sps).
func (b *bench) recordLat() []float64 {
	if b.cfg.Workload == "write-mix" {
		return b.writeLat
	}
	return b.lat
}

// endToEnd is the untraced run's metric set.
func (b *bench) endToEnd() []Metric {
	lat := b.recordLat()
	ok := 0.0
	if b.attempted > 0 {
		ok = float64(b.attempted-b.failedStmts) / float64(b.attempted)
	}
	return []Metric{
		{"setup_s", "s", b.setupMed.Seconds()},
		{"latency_p50_ms", "ms", percentile(lat, 0.50)},
		{"latency_p90_ms", "ms", percentile(lat, 0.90)},
		{"latency_tail_ms", "ms", percentile(b.lat, tailPercentile(b.cfg.Workload))},
		{"throughput_sps", "1/s", float64(b.attempted) / b.busy.Seconds()},
		{"heap_live_mb", "MB", b.heapMB},
		{"ok_ratio", "ratio", ok},
	}
}

// summary writes every figure of the run, and every failure, to the
// log.
func (b *bench) summary(o *Outcome) {
	w := b.cfg.Log
	if w == nil {
		return
	}
	fmt.Fprintf(w, "perfbench %s seed=%d par=%d statements=%d (reads %d, writes %d) trace=%v\n",
		b.cfg.Workload, b.cfg.Seed, b.cfg.Par, b.attempted, len(b.readLat), len(b.writeLat), b.cfg.Trace)
	fmt.Fprintf(w, "  setup_s=%.4f analyze_ms=%.3f heap_live_mb=%.2f throughput_sps=%.2f failed_ratio=%.4f\n",
		b.setupMed.Seconds(), float64(b.analyzeMed)/1e6, b.heapMB,
		float64(b.attempted)/b.busy.Seconds(), float64(b.failedStmts)/float64(max(b.attempted, 1)))
	fmt.Fprintf(w, "  all:    p50=%.3fms p90=%.3fms p99=%.3fms\n",
		percentile(b.lat, 0.5), percentile(b.lat, 0.9), percentile(b.lat, 0.99))
	if len(b.writeLat) > 0 {
		fmt.Fprintf(w, "  reads:  p50=%.3fms p90=%.3fms\n", percentile(b.readLat, 0.5), percentile(b.readLat, 0.9))
		fmt.Fprintf(w, "  writes: p50=%.3fms p99=%.3fms\n", percentile(b.writeLat, 0.5), percentile(b.writeLat, 0.99))
		fmt.Fprintf(w, "  recovery_s=%.4f (median of %d reopens, %d commits, %d effects replayed)\n",
			b.recoveryMed.Seconds(), recoveryReps, b.recoveryCommits, b.recoveryEffts)
	}
	for _, op := range []Op{OpRead, OpBTRead, OpPrice, OpInsAuthor, OpDelRelated, OpBTFix} {
		if l := b.opLat[op]; len(l) > 0 {
			fmt.Fprintf(w, "  %-20s n=%-6d p50=%.3fms p90=%.3fms p99=%.3fms\n", op, len(l),
				percentile(l, 0.5), percentile(l, 0.9), percentile(l, 0.99))
		}
	}
	for _, m := range o.Metrics {
		fmt.Fprintf(w, "  %-40s %14.6f %s\n", m.Name, m.Value, m.Unit)
	}
	// A failing pool statement fails every time it is drawn: list each
	// statement once, with how often it failed.
	count := map[string]int{}
	var first []failure
	for _, f := range b.failures {
		if count[f.What]++; count[f.What] == 1 {
			first = append(first, f)
		}
	}
	for _, f := range first {
		fmt.Fprintf(w, "FAILED statement (%dx): %s\n  %s\n", count[f.What], f.What, f.Why)
	}
	for _, f := range b.checks {
		fmt.Fprintf(w, "FAILED check: %s\n  %s\n", f.What, f.Why)
	}
}

// percentile interpolates linearly between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := p * float64(len(s)-1)
	i := int(r)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (r-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }
