package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"strings"

	"taupsm"
	"taupsm/internal/taubench"
	"taupsm/internal/types"
)

// Oracles. Sequenced results are checked by the paper's §VII-B
// commutativity test — the timeslice at day d of a sequenced result
// equals the nontemporal query evaluated with CURRENT_DATE = d — over
// the statement's own context (taubench.Runner.CheckCommutativity is
// fixed to the full timeline), and by MAX/PERST agreement. The
// write-mix state is checked against an independent price model and
// across a close/reopen.

// rowKey renders a row's values as one string.
func rowKey(row []taupsm.Value) string {
	vals := make([]string, len(row))
	for i, v := range row {
		vals[i] = v.String()
	}
	return strings.Join(vals, "|")
}

// sortedRows renders a result as a sorted multiset.
func sortedRows(res *taupsm.Result) []string {
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = rowKey(row)
	}
	sort.Strings(out)
	return out
}

// digest is an order-insensitive fingerprint of a result's rows.
func digest(res *taupsm.Result) uint64 {
	h := fnv.New64a()
	for _, r := range sortedRows(res) {
		h.Write([]byte(r))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// timeslice projects the rows of a sequenced result (begin_time,
// end_time, data...) valid at day d, as a sorted multiset joined into
// one string.
func timeslice(res *taupsm.Result, d int64) string {
	day := types.FormatDate(d)
	var out []string
	for _, row := range res.Rows {
		if row[0].String() <= day && day < row[1].String() {
			out = append(out, rowKey(row[2:]))
		}
	}
	sort.Strings(out)
	return strings.Join(out, ";")
}

// sampleDays picks the days of [begin, end) the oracles compare at:
// every day of a context up to five days, otherwise its first and
// last day and three evenly spaced days between.
func sampleDays(begin, end int64) []int64 {
	n := end - begin
	k := min(n, 5)
	out := make([]int64, k)
	for i := range out {
		out[i] = begin
		if k > 1 {
			out[i] += int64(i) * (n - 1) / (k - 1)
		}
	}
	return out
}

// inContext checks that every row of a sequenced result carries a
// nonempty period inside the statement's context.
func inContext(s Stmt, res *taupsm.Result) error {
	lo, hi := types.FormatDate(s.Begin), types.FormatDate(s.End)
	for _, row := range res.Rows {
		if len(row) < 2 {
			return fmt.Errorf("row without period columns: %s", rowKey(row))
		}
		b, e := row[0].String(), row[1].String()
		if !(lo <= b && b < e && e <= hi) {
			return fmt.Errorf("row period [%s, %s) outside context [%s, %s)", b, e, lo, hi)
		}
	}
	return nil
}

// currentAt evaluates the nontemporal query with CURRENT_DATE = d and
// returns its rows as a sorted multiset joined into one string.
func currentAt(db *taupsm.DB, query string, d int64) (string, error) {
	eng := db.Engine()
	saved := eng.Now
	eng.Now = d
	defer func() { eng.Now = saved }()
	res, err := db.Query(query)
	if err != nil {
		return "", fmt.Errorf("current query at %s: %w", types.FormatDate(d), err)
	}
	return strings.Join(sortedRows(res), ";"), nil
}

// commute checks commutativity of a sequenced read's result at the
// given days (each paired with its precomputed timeslice).
func commute(db *taupsm.DB, s Stmt, days []int64, slices []string) error {
	for i, d := range days {
		cur, err := currentAt(db, s.Query, d)
		if err != nil {
			return err
		}
		if cur != slices[i] {
			return fmt.Errorf("timeslice at %s differs from the current query (%d vs %d bytes)",
				types.FormatDate(d), len(slices[i]), len(cur))
		}
	}
	return nil
}

func slicesAt(res *taupsm.Result, days []int64) []string {
	out := make([]string, len(days))
	for i, d := range days {
		out[i] = timeslice(res, d)
	}
	return out
}

// queryAs runs one statement under a fixed strategy, restoring Auto.
func queryAs(db *taupsm.DB, strategy taupsm.Strategy, sql string) (*taupsm.Result, error) {
	db.SetStrategy(strategy)
	defer db.SetStrategy(taupsm.Auto)
	return db.Query(sql)
}

// queryAuto runs a statement under Auto and reports whether Auto
// sliced it with MAX.
func queryAuto(db *taupsm.DB, sql string) (*taupsm.Result, bool, error) {
	m := db.Metrics()
	before := m.Value("stratum.strategy.max_total")
	res, err := db.Query(sql)
	return res, m.Value("stratum.strategy.max_total") > before, err
}

// agree checks that the strategy Auto did not choose gives the same
// timeslices as Auto's result. PERST does not apply to q17b's
// non-nested FETCH; there the check is skipped.
func agree(db *taupsm.DB, s Stmt, maxRun bool, days []int64, slices []string) error {
	other := taupsm.PerStatement
	if !maxRun {
		other = taupsm.Max
	}
	res, err := queryAs(db, other, s.SQL)
	if errors.Is(err, taupsm.ErrNotTransformable) {
		return nil
	}
	if err == nil {
		err = inContext(s, res)
	}
	if err != nil {
		return fmt.Errorf("%v: %w", other, err)
	}
	for i, d := range days {
		if timeslice(res, d) != slices[i] {
			return fmt.Errorf("MAX and PERST disagree at %s", types.FormatDate(d))
		}
	}
	return nil
}

// verifyRead runs one distinct sequenced read under Auto and checks
// its result: every period inside the context, commutativity at the
// sample days and, with withAgree, agreement with the other strategy.
// It returns the result's digest, against which later executions of
// the same statement are compared.
func verifyRead(db *taupsm.DB, s Stmt, withAgree bool) (uint64, error) {
	res, maxRun, err := queryAuto(db, s.SQL)
	if err == nil {
		err = inContext(s, res)
	}
	if err != nil {
		return 0, err
	}
	days := sampleDays(s.Begin, s.End)
	slices := slicesAt(res, days)
	if err := commute(db, s, days, slices); err != nil {
		return 0, err
	}
	if withAgree {
		if err := agree(db, s, maxRun, days, slices); err != nil {
			return 0, err
		}
	}
	return digest(res), nil
}

// historyRecord is what a timed history-scan statement leaves for the
// oracle run after the clock stops: the strategy Auto chose and the
// result's timeslices at the sample days.
type historyRecord struct {
	s      Stmt
	maxRun bool
	days   []int64
	slices []string
}

// verifyHistory checks a timed history-scan result on a separately
// built database with the same data: its timeslices commute with the
// current query and, with withAgree, agree with the strategy Auto did
// not choose.
func verifyHistory(db *taupsm.DB, r historyRecord, withAgree bool) error {
	if err := commute(db, r.s, r.days, r.slices); err != nil {
		return err
	}
	if withAgree {
		return agree(db, r.s, r.maxRun, r.days, r.slices)
	}
	return nil
}

// priceModel is write-mix's independent model of item prices: one
// value per item per timeline day, NaN where the item has no row.
type priceModel struct {
	lo    int64
	price [][]float64
}

const priceDump = `NONSEQUENCED VALIDTIME SELECT item_id, price, begin_time, end_time FROM item`

// readPrices dumps the item table into the per-day model shape.
func readPrices(db *taupsm.DB) (*priceModel, error) {
	res, err := db.Query(priceDump)
	if err != nil {
		return nil, fmt.Errorf("price dump: %w", err)
	}
	lo, hi := taubench.TimelineStart(), taubench.TimelineEnd()
	m := &priceModel{lo: lo, price: make([][]float64, wmItems)}
	for i := range m.price {
		m.price[i] = make([]float64, hi-lo)
		for d := range m.price[i] {
			m.price[i][d] = math.NaN()
		}
	}
	for _, row := range res.Rows {
		item, err := strconv.Atoi(strings.TrimPrefix(row[0].String(), "i"))
		if err != nil || item < 0 || item >= wmItems {
			return nil, fmt.Errorf("price dump: unexpected item id %q", row[0].String())
		}
		b, err1 := types.ParseDate(row[2].String())
		e, err2 := types.ParseDate(row[3].String())
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("price dump: bad period in %s", rowKey(row))
		}
		for d := max(b, lo); d < min(e, hi); d++ {
			if !math.IsNaN(m.price[item][d-lo]) {
				return nil, fmt.Errorf("price dump: item i%d has two rows on %s", item, types.FormatDate(d))
			}
			m.price[item][d-lo] = row[1].Float()
		}
	}
	return m, nil
}

// apply records a sequenced price update in the model.
func (m *priceModel) apply(s Stmt) {
	for d := s.Begin; d < s.End; d++ {
		p := &m.price[s.Item][d-m.lo]
		if !math.IsNaN(*p) {
			*p += s.Delta
		}
	}
}

// diff compares the model with a fresh dump, describing up to three
// mismatching (item, day) cells.
func (m *priceModel) diff(got *priceModel) []string {
	var out []string
	n := 0
	for i := range m.price {
		for d, want := range m.price[i] {
			g := got.price[i][d]
			if math.IsNaN(want) && math.IsNaN(g) || math.Abs(want-g) <= 1e-9 {
				continue
			}
			n++
			if len(out) < 3 {
				out = append(out, fmt.Sprintf("i%d on %s: model %v, database %v", i, types.FormatDate(m.lo+int64(d)), want, g))
			}
		}
	}
	if n > len(out) {
		out = append(out, fmt.Sprintf("... %d mismatching cells in all", n))
	}
	return out
}

// dumpTables renders every stored table's rows, sorted, for comparing
// the state before Close with the state after reopen.
func dumpTables(db *taupsm.DB) []string {
	cat := db.Engine().Cat
	var out []string
	for _, name := range cat.TableNames() {
		t := cat.Table(name)
		if t == nil {
			continue
		}
		for _, row := range t.Rows {
			vals := make([]string, len(row))
			for i, v := range row {
				vals[i] = v.Text()
			}
			out = append(out, name+":"+strings.Join(vals, "|"))
		}
	}
	sort.Strings(out)
	return out
}

// firstDiff describes the first difference between two sorted dumps.
func firstDiff(a, b []string) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("row %d: %q vs %q", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("%d rows vs %d rows", len(a), len(b))
}
