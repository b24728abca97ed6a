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

// purity is one routine's cached effect verdicts, valid while pin
// holds: the routines and table names the effect analysis consulted
// still resolve to the same catalog objects.
type purity struct {
	pure      bool // check.Pure
	writeFree bool // check.Summary.SharedWriteFree
	pin       *storage.Pin
}

// routineEffects returns a routine's effect verdicts. pure means free
// of SQL side effects: no DML against stored tables, no DDL, and only
// pure routines called, transitively (check.Pure). writeFree means no
// stored-table write and no DDL, with effects confined to collection
// variables and frame-local temporary tables (SharedWriteFree of the
// routine's summary). The static analyzer is the single source of
// truth for both. Verdicts are cached by lowercased routine name under
// a pin of the summary's dependency set: unrelated DDL re-pins them,
// while redefining the routine or any callee invalidates them (CREATE
// OR REPLACE installs a new *storage.Routine). This runs on every
// routine call, so the common case is the pin's fast path. The cache
// is a sync.Map because parallel fragment workers share it through
// their session handles.
func (db *DB) routineEffects(r *storage.Routine) *purity {
	key := strings.ToLower(r.Name)
	if v, ok := db.fnPure.Load(key); ok {
		if p := v.(*purity); p.pin.Valid(db.Cat) {
			return p
		}
	}
	pin := storage.NewPin(db.Cat)
	cat := check.FromStorage(db.Cat)
	sum := check.SummarizeRoutine(cat, r.Name)
	for name := range sum.Routines {
		pin.Routine(db.Cat, name)
	}
	for name := range sum.Tables {
		pin.Relation(db.Cat, name, storage.PinIdentity)
	}
	p := &purity{pure: check.Pure(cat, r.Name), writeFree: sum.SharedWriteFree(), pin: pin}
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
