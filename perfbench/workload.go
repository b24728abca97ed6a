package main

import (
	"fmt"
	"math/rand"

	"taupsm/internal/taubench"
	"taupsm/internal/types"
)

// Statement generation. Every input the database receives is built
// here from the seed: the same seed gives the same statement stream,
// and the harness sends each statement's SQL text unchanged (plus, for
// bitemporal corrections, the transaction clock the statement is
// recorded under).

// Op names the kind of a generated statement.
type Op string

// Statement kinds. Reads carry the benchmark query name in Stmt.Name.
const (
	OpRead       Op = "read"
	OpBTRead     Op = "bt_read"
	OpPrice      Op = "update_price"
	OpInsAuthor  Op = "insert_item_author"
	OpDelRelated Op = "delete_related"
	OpBTFix      Op = "bt_correction"
)

// Stmt is one generated statement.
type Stmt struct {
	Op   Op
	Name string // benchmark query (q2..q20, bt_*) or the DML kind
	SQL  string

	// Begin/End bound the statement's valid-time context [Begin, End)
	// (sequenced statements; zero for the nonsequenced BT reads).
	Begin, End int64
	// Query is the benchmark query text a sequenced read slices (for
	// the commutativity oracle); empty for BT reads and writes.
	Query string
	// Now, when nonzero, is the transaction clock (epoch day) the
	// statement runs under.
	Now int64
	// Item and Delta describe a price update for the write-mix model.
	Item  int
	Delta float64
	// Shard is the database the statement runs on (see Shards).
	Shard int
}

// Write reports whether the statement modifies data.
func (s Stmt) Write() bool {
	switch s.Op {
	case OpPrice, OpInsAuthor, OpDelRelated, OpBTFix:
		return true
	}
	return false
}

// Sequenced reports whether the statement is a VALIDTIME statement
// with an explicit context (every generated statement except the BT
// audit reads).
func (s Stmt) Sequenced() bool { return s.End > s.Begin }

// hotWindows are hot-window's context lengths: one day, week, month.
var hotWindows = []int{1, 7, 30}

// hotStarts is the number of seeded start dates per (query, window).
const hotStarts = 4

// startPhase is the weekday offset of the hot pool's start dates from
// the dataset's weekly change steps (mid-week).
const startPhase = 3

// historyDays is history-scan's context length.
const historyDays = 365

func date(d int64) string { return "DATE '" + types.FormatDate(d) + "'" }

func sequencedRead(q taubench.Query, begin, end int64) Stmt {
	return Stmt{
		Op: OpRead, Name: q.Name, Begin: begin, End: end, Query: q.Text,
		SQL: fmt.Sprintf("VALIDTIME (%s, %s) %s", date(begin), date(end), q.Text),
	}
}

// HotPool is hot-window's fixed statement pool: every benchmark query
// at every hot window, starting at each of hotStarts seeded dates —
// 16 x 3 x 4 = 192 distinct statements, inside the parse and
// translation cache caps (256) and the constant-period cache cap
// (1024). Start date i is drawn from the i-th equal part of the
// timeline, so every seed's pool spans the whole history, and falls on
// the same weekday relative to the dataset's weekly change steps: how
// many constant periods a short window holds depends on that phase
// (a week starting on a change step holds one, any other week two),
// and a pool's cost should not depend on the luck of its weekdays.
func HotPool(seed int64) []Stmt {
	rng := rand.New(rand.NewSource(seed))
	lo, hi := taubench.TimelineStart(), taubench.TimelineEnd()
	weeks := (hi - lo - 30) / 7 / hotStarts
	starts := make([]int64, hotStarts)
	for i := range starts {
		starts[i] = lo + 7*(int64(i)*weeks+rng.Int63n(weeks)) + startPhase
	}
	var pool []Stmt
	for _, q := range taubench.Queries() {
		for _, w := range hotWindows {
			for _, b := range starts {
				pool = append(pool, sequencedRead(q, b, b+int64(w)))
			}
		}
	}
	return pool
}

// Shards is how many databases a run of the workload spreads its
// statements over, each generated from its own seed (ShardSeed). The
// costs of the slow queries depend on the generated data as much as
// on the statement (q17 at one year ranged from 86 to 355 ms across
// four dataset seeds), so a run that sampled a single dataset would
// measure the seed more than the program. write-mix keeps one
// database: its data directory, price model and recovery are per
// database, and its figures are the write path's.
func Shards(workload string) int {
	switch workload {
	case "hot-window":
		return 6
	case "history-scan":
		return 8
	}
	return 1
}

// ShardSeed is the dataset (and hot pool) seed of shard k of a run.
func ShardSeed(seed int64, k int) int64 { return seed*16 + int64(k) }

// Generator yields a workload's statement stream.
type Generator interface {
	Next() Stmt
	// Boundary reports that the statements so far form whole rounds
	// of the workload's mix; a timed run ends at a boundary.
	Boundary() bool
}

// NewGenerator returns the seeded stream of the named workload.
func NewGenerator(workload string, seed int64) (Generator, error) {
	switch workload {
	case "hot-window":
		g := &hotGen{
			qw: deck{rng: rand.New(rand.NewSource(seed + 1)), n: len(taubench.Queries()) * len(hotWindows)},
			at: deck{rng: rand.New(rand.NewSource(seed + 5)), n: Shards(workload) * hotStarts},
		}
		for k := 0; k < Shards(workload); k++ {
			g.pools = append(g.pools, HotPool(ShardSeed(seed, k)))
		}
		return g, nil
	case "history-scan":
		return &historyGen{rng: rand.New(rand.NewSource(seed + 2)), starts: map[string]*deck{}}, nil
	case "write-mix":
		return newWriteGen(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

// Take returns the first n statements of a stream.
func Take(g Generator, n int) []Stmt {
	out := make([]Stmt, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// deck deals the indexes 0..n-1 in seeded random order, reshuffling
// after every round: each index is drawn uniformly, and every round
// holds the whole pool once, so a run's statement mix does not depend
// on sampling luck.
type deck struct {
	rng  *rand.Rand
	n    int
	hand []int
}

func (d *deck) next() int {
	if len(d.hand) == 0 {
		d.hand = d.rng.Perm(d.n)
	}
	i := d.hand[0]
	d.hand = d.hand[1:]
	return i
}

// hotGen deals the shards' hot pools in rounds of one statement per
// (query, window) pair, each at a (shard, start date) dealt from a
// second deck: every statement of every pool is equally likely, and
// each 48-statement round holds the same mix of queries and windows.
type hotGen struct {
	pools  [][]Stmt // per shard, in HotPool order
	qw, at deck
}

func (g *hotGen) Next() Stmt {
	qw, at := g.qw.next(), g.at.next()
	s := g.pools[at/hotStarts][qw*hotStarts+at%hotStarts]
	s.Shard = at / hotStarts
	return s
}

func (g *hotGen) Boundary() bool { return len(g.qw.hand) == 0 }

// historyGen emits rounds of the sixteen queries in seeded order, each
// over a one-year context. Each query deals its start dates from its
// own deck of the 365 possible ones, so no statement text repeats
// within 5,840 statements. Statement i runs on shard i mod Shards, so
// each round visits every shard equally.
type historyGen struct {
	rng    *rand.Rand
	round  []taubench.Query
	starts map[string]*deck
	n      int
}

func (g *historyGen) Boundary() bool { return len(g.round) == 0 }

func (g *historyGen) Next() Stmt {
	if len(g.round) == 0 {
		g.round = taubench.Queries()
		g.rng.Shuffle(len(g.round), func(i, j int) { g.round[i], g.round[j] = g.round[j], g.round[i] })
	}
	q := g.round[0]
	g.round = g.round[1:]
	lo, hi := taubench.TimelineStart(), taubench.TimelineEnd()
	d := g.starts[q.Name]
	if d == nil {
		d = &deck{rng: g.rng, n: int(hi - lo - historyDays)}
		g.starts[q.Name] = d
	}
	b := lo + int64(d.next())
	s := sequencedRead(q, b, b+historyDays)
	s.Shard = g.n % Shards("history-scan")
	g.n++
	return s
}

// Write-mix sizing: the DS1-SMALL entity counts the DML targets, the
// bitemporal clock's start (LoadBitemporal leaves it at 2011-06-15),
// and BT-SMALL's entity count and valid-time year.
const (
	wmItems    = 200
	wmAuthors  = 125
	btEntities = 40
)

var (
	btClockStart = types.MustDate(2011, 6, 15)
	btYearStart  = types.MustDate(2011, 1, 1)
	btTitles     = []string{"engineer", "manager", "director", "analyst", "intern"}
)

// writeGen alternates one write and one read. Writes cycle through the
// four DML kinds in seeded order per block of four; reads are dealt
// from the hot pool plus the BT audit queries. Each bitemporal
// correction advances the transaction clock by one day.
type writeGen struct {
	rng   *rand.Rand
	reads []Stmt
	deck  deck
	kinds []Op
	n     int
	clock int64
}

// writeReads is write-mix's read pool: the hot pool of the dataset
// seed plus the BT audit queries.
func writeReads(seed int64) []Stmt {
	reads := HotPool(seed)
	for _, q := range taubench.BTQueries() {
		reads = append(reads, Stmt{Op: OpBTRead, Name: q.Name, SQL: q.Text})
	}
	return reads
}

func newWriteGen(seed int64) *writeGen {
	reads := writeReads(ShardSeed(seed, 0))
	return &writeGen{rng: rand.New(rand.NewSource(seed + 3)), reads: reads, clock: btClockStart,
		deck: deck{rng: rand.New(rand.NewSource(seed + 4)), n: len(reads)}}
}

// Boundary falls after every block of four writes and their reads.
func (g *writeGen) Boundary() bool { return len(g.kinds) == 0 && g.n%2 == 0 }

func (g *writeGen) Next() Stmt {
	g.n++
	if g.n%2 == 0 {
		return g.reads[g.deck.next()]
	}
	if len(g.kinds) == 0 {
		g.kinds = []Op{OpPrice, OpInsAuthor, OpDelRelated, OpBTFix}
		g.rng.Shuffle(len(g.kinds), func(i, j int) { g.kinds[i], g.kinds[j] = g.kinds[j], g.kinds[i] })
	}
	op := g.kinds[0]
	g.kinds = g.kinds[1:]
	lo, hi := taubench.TimelineStart(), taubench.TimelineEnd()
	b := lo + g.rng.Int63n(hi-lo-7)
	e := b + 7
	s := Stmt{Op: op, Name: string(op), Begin: b, End: e}
	ctx := fmt.Sprintf("VALIDTIME (%s, %s)", date(b), date(e))
	switch op {
	case OpPrice:
		s.Item = g.rng.Intn(wmItems)
		s.Delta = float64(1+g.rng.Intn(8)) / 4 // exact in binary
		s.SQL = fmt.Sprintf("%s UPDATE item SET price = price + %g WHERE item_id = 'i%d'", ctx, s.Delta, s.Item)
	case OpInsAuthor:
		s.SQL = fmt.Sprintf("%s INSERT INTO item_author VALUES ('i%d', 'a%d')", ctx, g.rng.Intn(wmItems), g.rng.Intn(wmAuthors))
	case OpDelRelated:
		s.SQL = fmt.Sprintf("%s DELETE FROM related_items WHERE item_id = 'i%d'", ctx, g.rng.Intn(wmItems))
	case OpBTFix:
		g.clock++
		s.Now = g.clock
		s.Begin = btYearStart + g.rng.Int63n(300)
		s.End = s.Begin + 7 + g.rng.Int63n(50)
		s.SQL = fmt.Sprintf("VALIDTIME (%s, %s) UPDATE bt_position SET title = '%s' WHERE id = 'e%03d'",
			date(s.Begin), date(s.End), btTitles[g.rng.Intn(len(btTitles))], g.rng.Intn(btEntities))
	}
	return s
}
