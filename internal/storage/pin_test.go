package storage

import (
	"sync"
	"testing"

	"taupsm/internal/sqlast"
	"taupsm/internal/types"
)

func tempTable(name string, s *Schema) *Table {
	t := NewTable(name, s)
	t.Temporary = true
	return t
}

// Identity entries see every change in what a name resolves to,
// including temporary-table churn that leaves PersistentVersion alone,
// and re-pin across unrelated durable DDL.
func TestPinIdentity(t *testing.T) {
	c := NewCatalog()
	c.PutTable(NewTable("emp", testSchema()))
	c.PutTable(tempTable("d", testSchema()))
	c.PutView(&View{Name: "v", Cols: []string{"a"}})
	c.PutRoutine(&Routine{Kind: KindFunction, Name: "f", Fn: &sqlast.CreateFunctionStmt{Name: "f", Body: &sqlast.CompoundStmt{}}})
	pin := func() *Pin {
		p := NewPin(c)
		for _, n := range []string{"emp", "d", "v", "missing"} {
			p.Relation(c, n, PinIdentity)
		}
		p.Routine(c, "f")
		return p
	}

	p := pin()
	if !p.Valid(c) {
		t.Fatal("fresh pin must hold")
	}
	c.PutTable(NewTable("unrelated", testSchema()))
	if !p.Valid(c) {
		t.Fatal("unrelated durable DDL must re-pin, not invalidate")
	}

	// Recreating the temp table: same shape, new identity.
	c.DropTable("d")
	c.PutTable(tempTable("d", testSchema()))
	if p.Valid(c) {
		t.Fatal("recreated temp table must invalidate an identity pin")
	}

	// A temp table shadowing the view.
	p = pin()
	c.PutTable(tempTable("v", testSchema()))
	if p.Valid(c) {
		t.Fatal("temp table shadowing a view must invalidate an identity pin")
	}
	c.DropTable("v")

	p = pin()
	c.PutRoutine(&Routine{Kind: KindFunction, Name: "f", Fn: &sqlast.CreateFunctionStmt{Name: "f",
		Params: []sqlast.ParamDef{{Name: "a"}}, Body: &sqlast.CompoundStmt{}}})
	if p.Valid(c) {
		t.Fatal("redefined routine must invalidate")
	}

	p = pin()
	c.PutTable(NewTable("missing", testSchema()))
	if p.Valid(c) {
		t.Fatal("a durable table taking a pinned absent name must invalidate")
	}
}

// Shape entries survive recreation with the same columns; data entries
// see every row change.
func TestPinShapeAndData(t *testing.T) {
	c := NewCatalog()
	c.PutTable(tempTable("s", testSchema()))
	c.PutTable(NewTable("r", testSchema()))
	shape := NewPin(c)
	shape.Relation(c, "s", PinShape)
	shape.Relation(c, "nothing", PinShape)
	data := NewPin(c)
	data.Relation(c, "r", PinData)

	c.DropTable("s")
	c.PutTable(tempTable("s", testSchema()))
	if !shape.Valid(c) {
		t.Fatal("same-shape recreation must keep a shape pin")
	}
	c.PutTable(tempTable("nothing", testSchema()))
	if shape.Valid(c) {
		t.Fatal("a temp table taking a name pinned as absent must invalidate a shape pin")
	}
	c.DropTable("nothing")
	c.DropTable("s")
	c.PutTable(tempTable("s", NewSchema([]Column{{Name: "other"}})))
	if shape.Valid(c) {
		t.Fatal("a different column list must invalidate a shape pin")
	}

	if !data.Valid(c) {
		t.Fatal("untouched table must keep a data pin")
	}
	if err := c.Table("r").Insert([]types.Value{types.NewInt(1), types.NewString("x")}); err != nil {
		t.Fatal(err)
	}
	if data.Valid(c) {
		t.Fatal("a row change must invalidate a data pin")
	}
}

// Concurrent consults of one pin — plans and effect verdicts are shared
// by parallel fragment workers — may all take the re-pin path at once.
func TestPinConcurrentRepin(t *testing.T) {
	c := NewCatalog()
	c.PutTable(NewTable("emp", testSchema()))
	p := NewPin(c)
	p.Relation(c, "emp", PinIdentity)
	c.PutTable(NewTable("unrelated", testSchema()))
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !p.Valid(c) {
				t.Error("unrelated DDL invalidated a shared pin")
			}
		}()
	}
	wg.Wait()
}
