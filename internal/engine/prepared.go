package engine

import (
	"sync"

	"taupsm/internal/sqlast"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// Prepared is the shared execution state of a fragment batch: the
// per-statement structures that are identical for every fragment —
// materialized source relations whose pushdown filters are closed
// (reference nothing that changes between executions), the hash tables
// joinRels builds over them — cached once and reused by every
// execution that runs with the same Prepared attached.
//
// The stratum creates one Prepared per cached translation and passes
// it to ExecPreparedWithTables for the serial path and to every worker
// session of a parallel MAX run, so the batch plans once and executes
// many times: across the constant periods of one statement, across
// repeated executions of the same statement text, and across workers.
//
// Safety is by validation, exactly like the cp and translation caches:
// every cached relation is stamped with its table's identity, version,
// and the clock (CURRENT_DATE can appear in a closed filter), and the
// exact pushdown conjunct set it was filtered by, all re-checked on
// every consult. A mid-batch DML bumps the table version and the next
// consult rebuilds. Entries are immutable once published; the mutex
// only guards the maps.
type Prepared struct {
	mu   sync.Mutex
	rels map[*sqlast.BaseTable]*prepRel
}

// NewPrepared returns an empty prepared-plan cache.
func NewPrepared() *Prepared {
	return &Prepared{rels: map[*sqlast.BaseTable]*prepRel{}}
}

// prepRel is one cached source relation, keyed by the FROM-clause node
// that produced it. tab/version/now/push are the validity stamp; rel
// is served to evalSelect as a shallow struct copy (its rows are never
// mutated in place by the evaluator — filters reallocate). The join
// hash tables, keyed by key signature, are built on demand under mu.
type prepRel struct {
	tab     *storage.Table
	version int64
	now     int64
	push    []*conjunct // pushdown set at build time, compared by identity

	rel *rel

	mu     sync.Mutex
	hashes map[string]map[string][][][]types.Value
}

// valid reports whether the entry still describes table t filtered by
// exactly the given pushdown conjuncts under the current clock.
func (e *prepRel) valid(t *storage.Table, now int64, pushdown []*conjunct) bool {
	if e.tab != t || e.version != t.Version() || e.now != now {
		return false
	}
	if len(e.push) != len(pushdown) {
		return false
	}
	for i, c := range pushdown {
		if e.push[i] != c {
			return false
		}
	}
	return true
}

// cacheablePushdown reports whether every pushdown conjunct is closed:
// no subqueries, no unresolved or outer/parameter references, no
// routine calls. Only then does filtering commute with caching — the
// filtered relation is a pure function of (table contents, clock).
func cacheablePushdown(cs []*conjunct) bool {
	for _, c := range cs {
		if c.hasSub || c.unresolved || c.external || c.expensive {
			return false
		}
	}
	return true
}

// loadSourcePrepared is loadSource behind the batch's prepared-plan
// cache. Only plain catalog-table references with cacheable pushdown
// take the cached path; everything else (views, derived tables,
// table-valued variables, parameter-dependent filters) falls through
// to a fresh load.
func (db *DB) loadSourcePrepared(ctx *execCtx, ref sqlast.TableRef, metas []entryMeta, pushdown []*conjunct) (*rel, error) {
	p := ctx.prep
	if p == nil || db.DisablePlanReuse {
		return db.loadSource(ctx, ref, metas, pushdown)
	}
	bt, ok := ref.(*sqlast.BaseTable)
	if !ok || !cacheablePushdown(pushdown) {
		return db.loadSource(ctx, ref, metas, pushdown)
	}
	if ctx.vars != nil && ctx.vars.getTable(bt.Name) != nil {
		// Shadowed by a table-valued variable (the cp relation, a
		// collection parameter): contents are per-execution.
		return db.loadSource(ctx, ref, metas, pushdown)
	}
	t := db.Cat.Table(bt.Name)
	if t == nil {
		return db.loadSource(ctx, ref, metas, pushdown)
	}

	p.mu.Lock()
	if ent := p.rels[bt]; ent != nil && ent.valid(t, db.Now, pushdown) {
		cp := *ent.rel
		cp.prepEnt = ent
		p.mu.Unlock()
		db.Stats.PlanReuseHits++
		return &cp, nil
	}
	p.mu.Unlock()

	// Read the version before scanning so a racing bump can only make
	// the stamp too old (a spurious rebuild), never too new.
	version := t.Version()
	loaded, err := db.loadSource(ctx, ref, metas, pushdown)
	if err != nil {
		return nil, err
	}
	if loaded.tab != t {
		// Resolved to something other than the stored table's scan
		// (e.g. a view of the same name): don't cache.
		return loaded, nil
	}
	ent := &prepRel{
		tab:     t,
		version: version,
		now:     db.Now,
		push:    append([]*conjunct(nil), pushdown...),
		rel:     loaded,
	}
	p.mu.Lock()
	p.rels[bt] = ent
	p.mu.Unlock()
	cp := *loaded
	cp.prepEnt = ent
	return &cp, nil
}

// hashFor returns the cached join hash table for the rendered key
// signature.
func (e *prepRel) hashFor(sig string) (map[string][][][]types.Value, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	idx, ok := e.hashes[sig]
	return idx, ok
}

func (e *prepRel) putHash(sig string, idx map[string][][][]types.Value) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.hashes == nil {
		e.hashes = map[string]map[string][][][]types.Value{}
	}
	e.hashes[sig] = idx
}

// hashIndexFor builds (or serves from the prepared plan) the hash
// table over the right relation's rows keyed by rkeys. Only cached
// when the right side came out of the prepared cache and every key is
// a plain column reference — then the table is a pure function of the
// (already version-validated) cached rows.
func (db *DB) hashIndexFor(ctx *execCtx, right *rel, rkeys []sqlast.Expr) (map[string][][][]types.Value, error) {
	sig := ""
	cacheable := right.prepEnt != nil && !db.DisablePlanReuse
	if cacheable {
		for _, k := range rkeys {
			if _, isCol := k.(*sqlast.ColumnRef); !isCol {
				cacheable = false
				break
			}
			s := renderSQL(k)
			if s == "" {
				cacheable = false
				break
			}
			sig += s + "|"
		}
	}
	if cacheable {
		if idx, ok := right.prepEnt.hashFor(sig); ok {
			db.Stats.PlanReuseHits++
			return idx, nil
		}
	}
	index := make(map[string][][][]types.Value, len(right.rows))
	rscope := newBoundScope(ctx.scope, right.metas)
	rctx := ctx.withScope(rscope)
	for _, rrow := range right.rows {
		rscope.bind(rrow)
		key, null, err := db.keyOf(rctx, rkeys)
		if err != nil {
			return nil, err
		}
		if null {
			continue
		}
		index[key] = append(index[key], rrow)
	}
	if cacheable {
		right.prepEnt.putHash(sig, index)
	}
	return index, nil
}
