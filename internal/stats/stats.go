// Package stats maintains the workload and data statistics the
// stratum's strategy heuristic and EXPLAIN estimates consume: per-table
// temporal distributions (valid-time endpoint multisets, interval
// lengths, overlap depths) kept incrementally current by the engine's
// DML journal, and per-routine / per-statement workload profiles folded
// in from the observability plumbing.
//
// The table-level model has two tiers:
//
//   - The distribution (row count, endpoint multisets, interval-length
//     histogram) is maintained incrementally: every insert, update, and
//     delete — including their journal rollbacks — adjusts it in O(1),
//     so `ANALYZE` never needs to run for the distribution to be exact.
//     Entries created without a history (recovery, CREATE TABLE AS ...
//     WITH DATA) start dirty and are recomputed from the stored rows on
//     first read.
//   - ANALYZE extras (overlap-depth histogram, constant-period count
//     over the table's own extent) need a full sweep and are computed
//     only by ANALYZE; they are timestamps of the last scan, not live.
//
// DML counters (Inserts/Updates/Deletes) are history, not state: they
// are never derivable from the rows, so they are the part persisted
// through WAL checkpoints and re-accumulated from replayed commits.
package stats

import (
	"math/bits"
	"sort"
	"strings"
	"sync"

	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// HistBuckets is the bucket count of the package's log2 histograms:
// bucket 0 holds values <= 1, bucket i holds 2^(i-1) < v <= 2^i, and
// the last bucket absorbs everything beyond 2^62.
const HistBuckets = 40

// Histogram is a fixed log2 bucket vector (interval lengths in days,
// overlap depths in rows).
type Histogram [HistBuckets]int64

// histBucket maps a positive value to its log2 bucket.
func histBucket(v int64) int {
	if v <= 1 {
		return 0
	}
	i := bits.Len64(uint64(v - 1)) // ceil(log2 v) for v >= 2
	if i >= HistBuckets {
		return HistBuckets - 1
	}
	return i
}

// BucketLow returns the exclusive lower bound of bucket i (inclusive
// upper bound is 2^i).
func BucketLow(i int) int64 {
	if i == 0 {
		return 0
	}
	return int64(1) << uint(i-1)
}

// Table is one table's statistics entry. All access goes through a
// Registry, which serializes it; the exported counter fields are read
// directly by snapshot code holding the registry lock.
type Table struct {
	// DML history since creation (or recovery, seeded from the persisted
	// checkpoint record plus the replayed WAL tail).
	Inserts int64
	Updates int64
	Deletes int64

	// Distribution: incrementally maintained when fresh.
	rowCount int64
	begins   map[int64]int64 // valid-time begin multiset (temporal tables)
	ends     map[int64]int64 // valid-time end multiset
	lenSum   int64           // sum of interval lengths (end - begin)
	lenHist  Histogram
	dirty    bool // distribution must be recomputed from the stored rows

	// Lazily built sorted views over the multisets, invalidated by any
	// distribution change.
	viewsValid bool
	points     []int64 // sorted distinct endpoints (begins ∪ ends)
	beginVals  []int64 // sorted distinct begin values
	beginCum   []int64 // beginCum[i] = #rows with begin <= beginVals[i]
	endVals    []int64
	endCum     []int64

	// ANALYZE extras: computed by the last full sweep only.
	Analyzed        bool
	AnalyzedRows    int64
	AnalyzedPeriods int64 // constant periods over the table's own extent
	MaxOverlap      int64 // peak overlap depth seen by the last ANALYZE
	OverlapHist     Histogram
}

// Registry is the statistics store shared by every engine session of
// one database: table entries keyed by lowercase table name, plus the
// workload profiles. All methods are safe for concurrent use and
// nil-receiver safe, so hook sites need no guard.
type Registry struct {
	mu         sync.Mutex
	tables     map[string]*Table
	routines   map[string]*RoutineProfile
	statements map[string]*StatementProfile
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		tables:     map[string]*Table{},
		routines:   map[string]*RoutineProfile{},
		statements: map[string]*StatementProfile{},
	}
}

func key(name string) string { return strings.ToLower(name) }

// entryLocked returns the named entry, creating a dirty one on first
// sight (a table that predates the registry, or arrived by recovery).
func (r *Registry) entryLocked(name string) *Table {
	e, ok := r.tables[key(name)]
	if !ok {
		e = &Table{dirty: true}
		r.tables[key(name)] = e
	}
	return e
}

// rowPeriod extracts a temporal row's valid-time endpoints.
func rowPeriod(t *storage.Table, row []types.Value) (int64, int64, bool) {
	if !t.ValidTime && !t.TransactionTime {
		return 0, 0, false
	}
	bc, ec := t.BeginCol(), t.EndCol()
	if bc < 0 || ec >= len(row) {
		return 0, 0, false
	}
	return row[bc].I, row[ec].I, true
}

// addRow folds one row into the distribution (sign +1) or removes it
// (sign -1). No-op while dirty: the eventual recompute sees the final
// rows anyway.
func (e *Table) addRow(t *storage.Table, row []types.Value, sign int64) {
	e.rowCount += sign
	if e.dirty {
		return
	}
	b, end, ok := rowPeriod(t, row)
	if !ok {
		e.viewsValid = false
		return
	}
	if e.begins == nil {
		e.begins, e.ends = map[int64]int64{}, map[int64]int64{}
	}
	bumpMultiset(e.begins, b, sign)
	bumpMultiset(e.ends, end, sign)
	e.lenSum += sign * (end - b)
	e.lenHist[histBucket(end-b)] += sign
	e.viewsValid = false
}

func bumpMultiset(m map[int64]int64, v, sign int64) {
	n := m[v] + sign
	if n == 0 {
		delete(m, v)
	} else {
		m[v] = n
	}
}

// NoteInsert records a row insertion.
func (r *Registry) NoteInsert(t *storage.Table, row []types.Value) {
	if r == nil {
		return
	}
	r.mu.Lock()
	e := r.entryLocked(t.Name)
	e.Inserts++
	e.addRow(t, row, 1)
	r.mu.Unlock()
}

// RevertInsert undoes NoteInsert (statement rollback).
func (r *Registry) RevertInsert(t *storage.Table, row []types.Value) {
	if r == nil {
		return
	}
	r.mu.Lock()
	e := r.entryLocked(t.Name)
	e.Inserts--
	e.addRow(t, row, -1)
	r.mu.Unlock()
}

// NoteDelete records a row deletion; row is the removed row.
func (r *Registry) NoteDelete(t *storage.Table, row []types.Value) {
	if r == nil {
		return
	}
	r.mu.Lock()
	e := r.entryLocked(t.Name)
	e.Deletes++
	e.addRow(t, row, -1)
	r.mu.Unlock()
}

// RevertDelete undoes NoteDelete.
func (r *Registry) RevertDelete(t *storage.Table, row []types.Value) {
	if r == nil {
		return
	}
	r.mu.Lock()
	e := r.entryLocked(t.Name)
	e.Deletes--
	e.addRow(t, row, 1)
	r.mu.Unlock()
}

// NoteUpdate records an in-place row mutation: old holds the
// pre-mutation values, new the current ones.
func (r *Registry) NoteUpdate(t *storage.Table, old, new []types.Value) {
	if r == nil {
		return
	}
	r.mu.Lock()
	e := r.entryLocked(t.Name)
	e.Updates++
	e.addRow(t, old, -1)
	e.addRow(t, new, 1)
	r.mu.Unlock()
}

// RevertUpdate undoes NoteUpdate.
func (r *Registry) RevertUpdate(t *storage.Table, old, new []types.Value) {
	if r == nil {
		return
	}
	r.mu.Lock()
	e := r.entryLocked(t.Name)
	e.Updates--
	e.addRow(t, new, -1)
	e.addRow(t, old, 1)
	r.mu.Unlock()
}

// Reset installs a fresh entry for a created or replaced table and
// returns the previous entry (nil if none) so DDL rollback can restore
// it. preserve carries the old entry's DML counters forward (ALTER ADD
// VALIDTIME replaces the table object but not the table's history).
func (r *Registry) Reset(name string, preserve bool) *Table {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	prev := r.tables[key(name)]
	e := &Table{dirty: true}
	if preserve && prev != nil {
		e.Inserts, e.Updates, e.Deletes = prev.Inserts, prev.Updates, prev.Deletes
	}
	r.tables[key(name)] = e
	return prev
}

// Drop removes a table's entry and returns it for rollback restoration.
func (r *Registry) Drop(name string) *Table {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	prev := r.tables[key(name)]
	delete(r.tables, key(name))
	return prev
}

// Restore puts back an entry removed or replaced by Reset/Drop.
func (r *Registry) Restore(name string, prev *Table) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev == nil {
		delete(r.tables, key(name))
	} else {
		r.tables[key(name)] = prev
	}
}

// recomputeLocked rebuilds the distribution from the stored rows.
func (e *Table) recomputeLocked(t *storage.Table) {
	e.rowCount = int64(len(t.Rows))
	e.begins, e.ends = map[int64]int64{}, map[int64]int64{}
	e.lenSum = 0
	e.lenHist = Histogram{}
	for _, row := range t.Rows {
		b, end, ok := rowPeriod(t, row)
		if !ok {
			continue
		}
		e.begins[b]++
		e.ends[end]++
		e.lenSum += end - b
		e.lenHist[histBucket(end-b)]++
	}
	e.dirty = false
	e.viewsValid = false
}

// freshLocked makes the entry's distribution current, recomputing from
// the table when dirty.
func (r *Registry) freshLocked(t *storage.Table) *Table {
	e := r.entryLocked(t.Name)
	if e.dirty {
		e.recomputeLocked(t)
	}
	return e
}

// buildViewsLocked rebuilds the sorted multiset views.
func (e *Table) buildViewsLocked() {
	if e.viewsValid {
		return
	}
	e.beginVals, e.beginCum = sortedCum(e.begins)
	e.endVals, e.endCum = sortedCum(e.ends)
	e.points = e.points[:0]
	seen := make(map[int64]struct{}, len(e.begins)+len(e.ends))
	for v := range e.begins {
		seen[v] = struct{}{}
	}
	for v := range e.ends {
		seen[v] = struct{}{}
	}
	for v := range seen {
		e.points = append(e.points, v)
	}
	sort.Slice(e.points, func(i, j int) bool { return e.points[i] < e.points[j] })
	e.viewsValid = true
}

// sortedCum renders a multiset as sorted distinct values with running
// cumulative multiplicities.
func sortedCum(m map[int64]int64) ([]int64, []int64) {
	vals := make([]int64, 0, len(m))
	for v := range m {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	cum := make([]int64, len(vals))
	var run int64
	for i, v := range vals {
		run += m[v]
		cum[i] = run
	}
	return vals, cum
}

// countLE returns the number of multiset elements <= v.
func countLE(vals, cum []int64, v int64) int64 {
	i := sort.Search(len(vals), func(i int) bool { return vals[i] > v })
	if i == 0 {
		return 0
	}
	return cum[i-1]
}

// InteriorPoints returns the number of distinct stored valid-time
// endpoints strictly inside (b, e) — the exact per-table term of the
// constant-period count temporal.ConstantPeriods would produce for
// that context.
func (r *Registry) InteriorPoints(t *storage.Table, b, e int64) int64 {
	if r == nil || t == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ent := r.freshLocked(t)
	ent.buildViewsLocked()
	lo := sort.Search(len(ent.points), func(i int) bool { return ent.points[i] > b })
	hi := sort.Search(len(ent.points), func(i int) bool { return ent.points[i] >= e })
	if hi < lo {
		return 0
	}
	return int64(hi - lo)
}

// RowsOverlapping estimates the number of stored rows whose valid-time
// period overlaps the context (b, e) under the stratum's fragment
// predicate begin < e && b < end. For a fresh entry the estimate is
// exact: it is row count minus the rows ending at or before b minus
// the rows beginning at or after e, both read off the endpoint
// multisets. Non-temporal tables report their full row count.
func (r *Registry) RowsOverlapping(t *storage.Table, b, e int64) int64 {
	if r == nil || t == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ent := r.freshLocked(t)
	if !t.ValidTime && !t.TransactionTime {
		return ent.rowCount
	}
	if b >= e {
		return 0
	}
	ent.buildViewsLocked()
	endsBefore := countLE(ent.endVals, ent.endCum, b)
	totalBegins := int64(0)
	if n := len(ent.beginCum); n > 0 {
		totalBegins = ent.beginCum[n-1]
	}
	beginsAfter := totalBegins - countLE(ent.beginVals, ent.beginCum, e-1)
	n := ent.rowCount - endsBefore - beginsAfter
	if n < 0 {
		n = 0
	}
	return n
}

// HasAnalyzed reports whether the table has been ANALYZEd (this run or
// a recovered one). The stratum's estimate layer activates only then:
// statistics-informed decisions are an opt-in the user makes by running
// ANALYZE, exactly as with conventional optimizer statistics.
func (r *Registry) HasAnalyzed(t *storage.Table) bool {
	if r == nil || t == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ent, ok := r.tables[key(t.Name)]
	return ok && ent.Analyzed
}

// RowCount returns the table's current row count (recomputed if dirty).
func (r *Registry) RowCount(t *storage.Table) int64 {
	if r == nil || t == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.freshLocked(t).rowCount
}

// Analyze runs the full statistics sweep over one table: the
// distribution is recomputed from scratch and the ANALYZE extras
// (overlap-depth histogram, peak depth, constant-period count over the
// table's own extent) are rebuilt with a sweep-line pass. Returns the
// resulting snapshot.
func (r *Registry) Analyze(t *storage.Table) TableSnapshot {
	if r == nil || t == nil {
		return TableSnapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entryLocked(t.Name)
	e.recomputeLocked(t)
	e.buildViewsLocked()
	e.Analyzed = true
	e.AnalyzedRows = e.rowCount
	e.AnalyzedPeriods = 0
	e.MaxOverlap = 0
	e.OverlapHist = Histogram{}
	if n := len(e.points); n > 1 {
		e.AnalyzedPeriods = int64(n - 1)
		// Sweep the distinct endpoints left to right; between consecutive
		// points the overlap depth is constant: +begins entering, -ends
		// leaving.
		var depth int64
		for i := 0; i < n-1; i++ {
			depth += e.begins[e.points[i]] - e.ends[e.points[i]]
			if depth > e.MaxOverlap {
				e.MaxOverlap = depth
			}
			if depth > 0 {
				e.OverlapHist[histBucket(depth)]++
			}
		}
	}
	return e.snapshotLocked(t.Name, t)
}

// TableSnapshot is one table's statistics as exposed by the
// tau_stat_tables system table and the /statistics endpoint.
type TableSnapshot struct {
	Name            string  `json:"name"`
	Temporal        bool    `json:"temporal"`
	RowCount        int64   `json:"row_count"`
	Inserts         int64   `json:"inserts"`
	Updates         int64   `json:"updates"`
	Deletes         int64   `json:"deletes"`
	DistinctPoints  int64   `json:"distinct_points"`
	ConstantPeriods int64   `json:"constant_periods"`
	PeriodDensity   float64 `json:"period_density"`
	AvgIntervalDays float64 `json:"avg_interval_days"`
	Analyzed        bool    `json:"analyzed"`
	AnalyzedRows    int64   `json:"analyzed_rows,omitempty"`
	MaxOverlap      int64   `json:"max_overlap,omitempty"`
}

// snapshotLocked renders the entry; the distribution must be fresh.
func (e *Table) snapshotLocked(name string, t *storage.Table) TableSnapshot {
	e.buildViewsLocked()
	s := TableSnapshot{
		Name:     name,
		Temporal: t.ValidTime || t.TransactionTime,
		RowCount: e.rowCount,
		Inserts:  e.Inserts,
		Updates:  e.Updates,
		Deletes:  e.Deletes,
		Analyzed: e.Analyzed,
	}
	s.DistinctPoints = int64(len(e.points))
	if len(e.points) > 1 {
		s.ConstantPeriods = int64(len(e.points) - 1)
	}
	if e.rowCount > 0 && s.Temporal {
		s.PeriodDensity = float64(s.ConstantPeriods) / float64(e.rowCount)
		s.AvgIntervalDays = float64(e.lenSum) / float64(e.rowCount)
	}
	if e.Analyzed {
		s.AnalyzedRows = e.AnalyzedRows
		s.MaxOverlap = e.MaxOverlap
	}
	return s
}

// Snapshot returns one table's statistics, freshening the distribution
// first.
func (r *Registry) Snapshot(t *storage.Table) TableSnapshot {
	if r == nil || t == nil {
		return TableSnapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.freshLocked(t).snapshotLocked(t.Name, t)
}

// TableSnapshots renders every non-temporary catalog table's
// statistics, sorted by name. Entries without a catalog table (dropped
// tables, stale persistence) are invisible.
func (r *Registry) TableSnapshots(cat *storage.Catalog) []TableSnapshot {
	if r == nil || cat == nil {
		return nil
	}
	names := cat.TableNames()
	sort.Strings(names)
	out := make([]TableSnapshot, 0, len(names))
	for _, name := range names {
		t := cat.Table(name)
		if t == nil || t.Temporary {
			continue
		}
		out = append(out, r.Snapshot(t))
	}
	return out
}

// Distribution is a comparable copy of a table entry's incremental
// state, for the incremental-vs-recomputed property tests.
type Distribution struct {
	RowCount int64
	Begins   []int64 // sorted, multiplicities expanded
	Ends     []int64
	LenSum   int64
	LenHist  Histogram
}

// expand renders a multiset as a sorted value list with repeats.
func expand(m map[int64]int64) []int64 {
	var out []int64
	for v, n := range m {
		for i := int64(0); i < n; i++ {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DistributionOf copies the incrementally maintained distribution
// without freshening it — the point is to observe what the increments
// produced. A dirty entry freshens first (there is nothing incremental
// to observe yet).
func (r *Registry) DistributionOf(t *storage.Table) Distribution {
	if r == nil || t == nil {
		return Distribution{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.freshLocked(t)
	return Distribution{
		RowCount: e.rowCount,
		Begins:   expand(e.begins),
		Ends:     expand(e.ends),
		LenSum:   e.lenSum,
		LenHist:  e.lenHist,
	}
}

// RecomputeDistribution builds a table's distribution from scratch, the
// reference the property tests compare the incremental state against.
func RecomputeDistribution(t *storage.Table) Distribution {
	var e Table
	e.dirty = true
	e.recomputeLocked(t)
	return Distribution{
		RowCount: e.rowCount,
		Begins:   expand(e.begins),
		Ends:     expand(e.ends),
		LenSum:   e.lenSum,
		LenHist:  e.lenHist,
	}
}

// Equal reports whether two distributions match exactly.
func (d Distribution) Equal(o Distribution) bool {
	if d.RowCount != o.RowCount || d.LenSum != o.LenSum || d.LenHist != o.LenHist {
		return false
	}
	return int64SlicesEqual(d.Begins, o.Begins) && int64SlicesEqual(d.Ends, o.Ends)
}

func int64SlicesEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---------- checkpoint persistence ----------

// TablePersist is the non-derivable slice of one table's entry: the DML
// history and the last ANALYZE's extras. The distribution itself is
// rebuilt from the recovered rows (entries load dirty).
type TablePersist struct {
	Name            string
	Inserts         int64
	Updates         int64
	Deletes         int64
	Analyzed        bool
	AnalyzedRows    int64
	AnalyzedPeriods int64
	MaxOverlap      int64
	OverlapHist     []int64 // sparse (bucket, count) pairs flattened
}

// Persist renders every tracked table's persistent state, sorted by
// name for deterministic snapshots.
func (r *Registry) Persist() []TablePersist {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.tables))
	for n := range r.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]TablePersist, 0, len(names))
	for _, n := range names {
		e := r.tables[n]
		p := TablePersist{
			Name: n, Inserts: e.Inserts, Updates: e.Updates, Deletes: e.Deletes,
			Analyzed: e.Analyzed, AnalyzedRows: e.AnalyzedRows,
			AnalyzedPeriods: e.AnalyzedPeriods, MaxOverlap: e.MaxOverlap,
		}
		for i, c := range e.OverlapHist {
			if c != 0 {
				p.OverlapHist = append(p.OverlapHist, int64(i), c)
			}
		}
		out = append(out, p)
	}
	return out
}

// Install seeds the registry from persisted state; entries load dirty
// so the distribution is recomputed from the recovered rows on first
// read.
func (r *Registry) Install(ps []TablePersist) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range ps {
		e := &Table{
			Inserts: p.Inserts, Updates: p.Updates, Deletes: p.Deletes,
			Analyzed: p.Analyzed, AnalyzedRows: p.AnalyzedRows,
			AnalyzedPeriods: p.AnalyzedPeriods, MaxOverlap: p.MaxOverlap,
			dirty: true,
		}
		for i := 0; i+1 < len(p.OverlapHist); i += 2 {
			if b := p.OverlapHist[i]; b >= 0 && b < HistBuckets {
				e.OverlapHist[b] = p.OverlapHist[i+1]
			}
		}
		r.tables[key(p.Name)] = e
	}
}

// AddReplayDelta folds one replayed WAL commit's DML counts into a
// table's history (recovery's counter continuation past the persisted
// checkpoint).
func (r *Registry) AddReplayDelta(name string, inserts, updates, deletes int64) {
	if r == nil || (inserts == 0 && updates == 0 && deletes == 0) {
		return
	}
	r.mu.Lock()
	e := r.entryLocked(name)
	e.Inserts += inserts
	e.Updates += updates
	e.Deletes += deletes
	r.mu.Unlock()
}
