package engine

import (
	"strings"

	"taupsm/internal/check"
	"taupsm/internal/storage"
	"taupsm/internal/types"
)

// Function-result memoization.
//
// The slicing strategies of the stratum invoke stored functions once
// per (tuple, constant period), and the argument vectors repeat
// heavily — every tuple of one period shares the period's begin time,
// and foreign keys repeat across tuples. When a function cannot change
// what it reads, two invocations with equal arguments must return
// equal results, so the engine keeps a per-statement memo of
// (function, arguments) → result. Two kinds of result are kept:
//
//   - Scalar results of pure routines (check.Pure), for any call site.
//   - Collection results of write-free routines
//     (check.Summary.SharedWriteFree), for FROM-clause table-function
//     call sites only. Those sites read the collection and never
//     mutate it; a scalar site could bind it to a variable and INSERT
//     into it, so it never gets a shared collection. This is what
//     answers a correlated PERST call TABLE(ps_f(x, period_begin,
//     period_end)) once per distinct x instead of once per outer row.
//     A table function whose arguments reference no earlier FROM item
//     needs no memo within one SELECT (evalSelect loads it once like
//     any other source); the memo serves repeated evaluations of that
//     SELECT within the statement.
//
// Scope and invalidation: the memo lives for one top-level statement
// (each statement starts with a fresh fnMemoState), and it is wiped
// whenever the session's write generation moves. The generation moves
// only on writes a memoized call can observe — stored tables, session
// temporary tables, views, routines and other DDL (observableWrite).
// A memoized call runs in a fresh frame and takes no collection
// argument, so writes to a routine frame's own collection variables
// and frame-local temporary tables cannot reach it and leave the memo
// intact. Memo hits still count as RoutineCalls — they are logical
// invocations, and the strategy call-count asymmetry the stats exist
// to demonstrate must stay observable — and are additionally counted
// in RoutineMemoHits. Detailed mode (a tracer) bypasses the memo so
// per-invocation spans remain real executions.

// fnMemoCap bounds one statement's memo; overflow wipes wholesale.
const fnMemoCap = 1 << 16

type fnMemoState struct {
	gen int64 // session write generation the entries were computed at
	m   map[string]types.Value
}

// memoLookup returns the cached result for key, wiping entries that
// predate a write.
func (ms *fnMemoState) lookup(db *DB, key string) (types.Value, bool) {
	if ms.gen != db.writeGen {
		ms.m = nil
		ms.gen = db.writeGen
	}
	v, ok := ms.m[key]
	return v, ok
}

func (ms *fnMemoState) store(db *DB, key string, v types.Value) {
	if ms.gen != db.writeGen {
		ms.m = nil
		ms.gen = db.writeGen
	}
	if ms.m == nil {
		ms.m = make(map[string]types.Value)
	} else if len(ms.m) >= fnMemoCap {
		ms.m = make(map[string]types.Value)
	}
	ms.m[key] = v
}

// memoKey builds the memo key for a call, or "" when the call is not
// memoizable: a scalar result needs a pure routine, a collection
// result a write-free routine and a FROM call site (fromSite), and no
// argument may be table-valued (the key cannot capture its contents).
func (db *DB) memoKey(r *storage.Routine, args []types.Value, fromSite bool) string {
	if r.Fn == nil {
		return ""
	}
	if r.Fn.Returns.IsCollection() {
		if !fromSite || !db.routineEffects(r).writeFree {
			return ""
		}
	} else if !db.routineEffects(r).pure {
		return ""
	}
	var b strings.Builder
	b.WriteString(r.Name)
	for _, v := range args {
		if v.Kind == types.KindTable {
			return ""
		}
		b.WriteByte(0)
		b.WriteString(v.HashKey())
	}
	return b.String()
}

// purity is one routine's cached effect verdicts. The persistent
// catalog version is a fast-path stamp; on mismatch the verdicts
// revalidate against their dependency set — the routines and table
// names the effect analysis consulted — and re-pin if none changed.
type purity struct {
	catV      int64
	pure      bool                        // check.Pure
	writeFree bool                        // check.Summary.SharedWriteFree
	routines  map[string]*storage.Routine // consulted routine -> identity at analysis
	tables    map[string]bool             // consulted table name -> existed
}

// depsValid reports whether the recorded dependency set still resolves
// identically: every consulted routine is the same object (PutRoutine
// keeps the pointer when a redefinition renders identically), and every
// consulted table name still (or still doesn't) name a stored table.
func (db *DB) depsValid(routines map[string]*storage.Routine, tables map[string]bool) bool {
	for name, ptr := range routines {
		if db.Cat.Routine(name) != ptr {
			return false
		}
	}
	for name, existed := range tables {
		if (db.Cat.Table(name) != nil) != existed {
			return false
		}
	}
	return true
}

// analysisDeps snapshots the dependency set of an effect summary
// against the live catalog, for later revalidation.
func (db *DB) analysisDeps(sum *check.Summary) (map[string]*storage.Routine, map[string]bool) {
	routines := make(map[string]*storage.Routine, len(sum.Routines))
	for name := range sum.Routines {
		routines[name] = db.Cat.Routine(name)
	}
	tables := make(map[string]bool, len(sum.Tables))
	for name, existed := range sum.Tables {
		tables[name] = existed
	}
	return routines, tables
}

// routineEffects returns a routine's effect verdicts. pure means free
// of SQL side effects: no DML against stored tables, no DDL, and only
// pure routines called, transitively (check.Pure). writeFree means no
// stored-table write and no DDL, with effects confined to collection
// variables and frame-local temporary tables (SharedWriteFree of the
// routine's summary). The static analyzer is the single source of
// truth for both. Verdicts are cached by lowercased routine name with
// two-level invalidation: a matching persistent catalog version
// accepts immediately, and a mismatched one falls back to the
// verdicts' inferred dependency set (the routines and tables the
// analysis consulted) — unrelated DDL re-pins the verdicts instead of
// recomputing them, while redefining the routine or any callee misses
// both levels (CREATE OR REPLACE installs a new *storage.Routine).
// The cache is a sync.Map because parallel fragment workers share it
// through their session handles.
func (db *DB) routineEffects(r *storage.Routine) purity {
	catV := db.Cat.PersistentVersion()
	key := strings.ToLower(r.Name)
	if v, ok := db.fnPure.Load(key); ok {
		p := v.(purity)
		if p.catV == catV {
			return p
		}
		if db.depsValid(p.routines, p.tables) {
			p.catV = catV
			db.fnPure.Store(key, p)
			return p
		}
	}
	cat := check.FromStorage(db.Cat)
	sum := check.SummarizeRoutine(cat, r.Name)
	routines, tables := db.analysisDeps(sum)
	p := purity{catV: catV, pure: check.Pure(cat, r.Name), writeFree: sum.SharedWriteFree(),
		routines: routines, tables: tables}
	db.fnPure.Store(key, p)
	return p
}

// RoutinePure reports whether the named stored routine is free of SQL
// side effects, or false when no such routine exists.
func (db *DB) RoutinePure(name string) bool {
	r := db.Cat.Routine(name)
	if r == nil {
		return false
	}
	return db.routineEffects(r).pure
}
