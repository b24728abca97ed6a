package storage

import "sync/atomic"

// Strength says how much of a relation name's resolution a pin entry
// requires to still hold.
type Strength uint8

// Pin strengths.
const (
	// PinIdentity requires the same *Table and *View (nil: absent).
	PinIdentity Strength = iota
	// PinShape requires a table with the same column names (or still no
	// table) and the same view: enough for metadata built from the
	// columns, and warm across scratch tables recreated per statement.
	PinShape
	// PinData requires the same *Table at the same Version, and the
	// same view: enough for anything computed from the rows.
	PinData
)

// Pin records how a set of catalog names resolved when a cache entry
// was built, and answers the one question every catalog-validated
// cache asks on reuse: does each name still resolve to what it did?
//
// Entries that resolved to a durable table, a routine, or nothing can
// only change through DDL that moves PersistentVersion, so they are
// re-checked only when that version has moved since the pin last
// held; the pin then re-pins to the new version. Entries that resolved
// to a temporary table or a view, and every shape or data entry, are
// checked on every consult: temporary-table churn leaves the version
// alone, and row data changes without DDL. A pinned pointer keeps its
// object alive, so an identity can never be reused while pinned.
//
// A pin is filled before it is published and read-only afterwards
// except for its atomic version, so any number of goroutines may
// consult it.
type Pin struct {
	version atomic.Int64 // PersistentVersion the durable entries last held at
	durable []pinEntry
	always  []pinEntry
}

type pinEntry struct {
	name      string
	strength  Strength
	isRoutine bool
	routine   *Routine // routine entries
	table     *Table   // identity and data entries
	view      *View
	cols      []string // shape entries: column names, nil when no table held the name
	version   int64    // data entries
}

// NewPin starts an empty pin. The persistent version is read before
// any entry is resolved, so a racing DDL can only leave the pin too
// old (a spurious re-check), never too new.
func NewPin(c *Catalog) *Pin {
	p := &Pin{}
	p.version.Store(c.persist.Load())
	return p
}

// Routine pins the identity of the routine name resolves to (nil:
// none) and returns it.
func (p *Pin) Routine(c *Catalog, name string) *Routine {
	r := c.Routine(name)
	p.add(pinEntry{name: name, isRoutine: true, routine: r}, false)
	return r
}

// Relation pins what name resolves to as a relation — a table, else a
// view, else nothing — at strength s. For data entries, pin before
// reading the rows, so a racing write leaves the entry too old.
func (p *Pin) Relation(c *Catalog, name string, s Strength) {
	t, v := c.relation(name)
	e := pinEntry{name: name, strength: s, view: v}
	switch s {
	case PinShape:
		if t != nil {
			e.cols = t.Schema.Names()
		}
	case PinData:
		e.table = t
		if t != nil {
			e.version = t.Version()
		}
	default:
		e.table = t
	}
	always := s != PinIdentity || (t != nil && t.Temporary) || (t == nil && e.view != nil)
	p.add(e, always)
}

func (p *Pin) add(e pinEntry, always bool) {
	list := &p.durable
	if always {
		list = &p.always
	}
	for _, o := range *list {
		if o.name == e.name && o.strength == e.strength && o.isRoutine == e.isRoutine {
			return
		}
	}
	*list = append(*list, e)
}

// Valid reports whether every pinned name still resolves as recorded.
func (p *Pin) Valid(c *Catalog) bool {
	for i := range p.always {
		if !p.always[i].holds(c) {
			return false
		}
	}
	v := c.persist.Load()
	if p.version.Load() == v {
		return true
	}
	for i := range p.durable {
		if !p.durable[i].holds(c) {
			return false
		}
	}
	p.version.Store(v)
	return true
}

func (e *pinEntry) holds(c *Catalog) bool {
	if e.isRoutine {
		return c.Routine(e.name) == e.routine
	}
	t, v := c.relation(e.name)
	if v != e.view {
		return false
	}
	switch e.strength {
	case PinShape:
		if t == nil {
			return e.cols == nil
		}
		return e.cols != nil && t.Schema.NamesEqual(e.cols)
	case PinData:
		return t == e.table && (t == nil || t.Version() == e.version)
	default:
		return t == e.table
	}
}
