package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"taupsm/internal/types"
)

// intervalFixture loads a temporal table of n randomized intervals —
// including empty (begin == end), point (one day), and
// fully-overlapping spans — and an outer table of stab dates, the
// worst-case shapes for the interval-index probe.
func intervalFixture(t testing.TB, spans, points int, seed int64) *DB {
	db := New()
	exec := func(src string) {
		if _, err := db.ExecScript(src); err != nil {
			t.Fatalf("exec %q: %v", src, err)
		}
	}
	exec(`CREATE TABLE sp (id INTEGER) AS VALIDTIME`)
	exec(`CREATE TABLE pt (d DATE)`)

	rng := rand.New(rand.NewSource(seed))
	base := types.MustDate(2010, 1, 1)
	var vals []string
	add := func(id int, b, e int64) {
		vals = append(vals, fmt.Sprintf("(%d, DATE '%s', DATE '%s')",
			id, types.FormatDate(b), types.FormatDate(e)))
	}
	for id := 0; id < spans; id++ {
		b := base + int64(rng.Intn(1000))
		switch id % 8 {
		case 0: // empty interval: matches no stab point
			add(id, b, b)
		case 1: // point interval: exactly one matching day
			add(id, b, b+1)
		case 2: // fully overlapping: open for the whole timeline
			add(id, base, base+1001)
		default:
			add(id, b, b+int64(1+rng.Intn(90)))
		}
	}
	exec("INSERT INTO sp VALUES " + strings.Join(vals, ", "))

	vals = vals[:0]
	for i := 0; i < points; i++ {
		p := base - 5 + int64(rng.Intn(1010))
		vals = append(vals, fmt.Sprintf("(DATE '%s')", types.FormatDate(p)))
	}
	exec("INSERT INTO pt VALUES " + strings.Join(vals, ", "))
	return db
}

// The interval-index stab join must return exactly the rows, in
// exactly the order, of the plain nested loop — for inner and left
// joins over randomized intervals.
func TestIntervalProbeAgreesWithNested(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		db := intervalFixture(t, 64, 60, seed)
		queries := []string{
			`SELECT d, id FROM pt, sp WHERE sp.begin_time <= pt.d AND pt.d < sp.end_time`,
			`SELECT d, id FROM pt LEFT JOIN sp ON sp.begin_time <= pt.d AND pt.d < sp.end_time`,
		}
		for _, q := range queries {
			p0 := db.Stats.IntervalProbes
			probed, err := db.ExecScript(q)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if db.Stats.IntervalProbes == p0 {
				t.Fatalf("seed %d: query did not probe the interval index; the test compares nothing", seed)
			}
			if len(probed.Rows) == 0 {
				t.Fatalf("seed %d: empty join result; fixture is degenerate", seed)
			}

			db.DisableIndexes = true
			nested, err := db.ExecScript(q)
			db.DisableIndexes = false
			if err != nil {
				t.Fatalf("seed %d nested: %v", seed, err)
			}

			want := fmt.Sprint(rowsText(nested))
			if got := fmt.Sprint(rowsText(probed)); got != want {
				t.Errorf("seed %d %q: probe and nested loop disagree\nprobe: %v\nnested: %v",
					seed, q, got, want)
			}
		}
	}
}
