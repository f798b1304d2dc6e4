package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// The reference data model. Everything in this file is written against
// the generator's own Go slices and shares no code with the engine: it
// is the independent side of every correctness check.

// val is one reference cell: an integer, or a string when str is set.
type val struct {
	i   int64
	s   string
	str bool
}

func iv(i int64) val  { return val{i: i} }
func sv(s string) val { return val{s: s, str: true} }

// refTable is a generated table kept in memory for the oracle.
type refTable struct {
	name    string
	cols    []string
	strCols map[int]bool // columns holding strings; the rest are integers
	indexed []string     // columns that get a single-column index <COL>_IX
	rows    [][]val
}

func (t *refTable) col(name string) int {
	for i, c := range t.cols {
		if c == name {
			return i
		}
	}
	panic("benchmark bug: no column " + name + " in " + t.name)
}

// pad returns a fixed-width string derived from id, so row width is
// constant and a row delivered under the wrong ID is still caught.
func pad(id int64, width int) string {
	s := fmt.Sprintf("%0*d", width, id)
	return s[len(s)-width:]
}

// zipf is an inverse-CDF sampler over ranks 0..n-1 with P(k) ∝ (k+1)^-s.
// Taking the uniform variate as an argument lets the op generator
// stratify it (see gen.strat) while the data generator draws it freely.
type zipf struct{ cdf []float64 }

func newZipf(s float64, n int) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += math.Pow(float64(k+1), -s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

func (z *zipf) rank(u float64) int {
	k := sort.SearchFloat64s(z.cdf, u)
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// gen is the seeded source of all data and operation parameters.
type gen struct{ r *rand.Rand }

func newGen(seed int64, key string) *gen {
	h := int64(1469598103934665603)
	for _, c := range []byte(key) {
		h = (h ^ int64(c)) * 1099511628211
	}
	return &gen{r: rand.New(rand.NewSource(seed*1000003 ^ h))}
}

// strat returns a uniform variate from the k-th of n equal strata of
// [0,1). A class that issues n ops draws its k-th parameter from the
// k-th stratum, so every seed covers the parameter domain evenly: the
// per-pass work, and with it every timing metric, varies far less from
// seed to seed than with n independent draws, while each single
// parameter is still uniformly distributed.
func (g *gen) strat(k, n int) float64 {
	return (float64(k) + g.r.Float64()) / float64(n)
}

// Domain sizes of the FAMILIES fixture (shared by oltp_warm, scan_*).
const (
	ageDomain    = 10000
	cityDomain   = 1000
	incomeDomain = 100000
	noteDomain   = 100
	zipfS        = 1.2
)

// families generates FAMILIES: ID sequential, AGE/INCOME/NOTE uniform,
// CITY Zipf(1.2) over 1000 values through a seeded rank→value
// permutation (so the hot city differs per seed), NOTE unindexed.
func families(g *gen, n int) (*refTable, []int64) {
	t := &refTable{
		name:    "FAMILIES",
		cols:    []string{"ID", "AGE", "CITY", "INCOME", "NOTE", "PAD"},
		strCols: map[int]bool{5: true},
		indexed: []string{"ID", "AGE", "CITY", "INCOME"},
		rows:    make([][]val, n),
	}
	z := newZipf(zipfS, cityDomain)
	cityOf := make([]int64, cityDomain)
	for i, p := range g.r.Perm(cityDomain) {
		cityOf[i] = int64(p)
	}
	for i := range t.rows {
		id := int64(i)
		t.rows[i] = []val{
			iv(id),
			iv(g.r.Int63n(ageDomain)),
			iv(cityOf[z.rank(g.r.Float64())]),
			iv(g.r.Int63n(incomeDomain)),
			iv(g.r.Int63n(noteDomain)),
			sv(pad(id, 60)),
		}
	}
	return t, cityOf
}

// Sizes of the join fixture.
const (
	regionDomain = 200
	segDomain    = 10
	hotSegShare  = 0.6 // SEG 0 holds 60 % of CUST: the 10 % guess under-shoots
)

// joinTables generates CUST / ORD / ITEM. Each customer has nOrd/nCust
// orders on average (ORD.CUST uniform); REGION = ID mod 200.
func joinTables(g *gen, nCust, nOrd, nItem int) []*refTable {
	cust := &refTable{
		name: "CUST", cols: []string{"ID", "SEG", "NAME", "PAD"},
		strCols: map[int]bool{2: true, 3: true},
		indexed: []string{"ID"},
		rows:    make([][]val, nCust),
	}
	for i := range cust.rows {
		id := int64(i)
		seg := int64(0)
		if g.r.Float64() >= hotSegShare {
			seg = 1 + g.r.Int63n(segDomain-1)
		}
		cust.rows[i] = []val{iv(id), iv(seg), sv(fmt.Sprintf("cust-%d", id)), sv(pad(id, 200))}
	}
	ord := &refTable{
		name: "ORD", cols: []string{"ID", "CUST", "ITEM", "REGION", "QTY", "PAD"},
		strCols: map[int]bool{5: true},
		indexed: []string{"CUST", "REGION"},
		rows:    make([][]val, nOrd),
	}
	for i := range ord.rows {
		id := int64(i)
		ord.rows[i] = []val{
			iv(id), iv(g.r.Int63n(int64(nCust))), iv(g.r.Int63n(int64(nItem))),
			iv(id % regionDomain), iv(1 + g.r.Int63n(9)), sv(pad(id, 200)),
		}
	}
	item := &refTable{
		name: "ITEM", cols: []string{"ID", "KIND"},
		rows: make([][]val, nItem), // no index on ITEM.ID: the unindexed equi-key
	}
	for i := range item.rows {
		item.rows[i] = []val{iv(int64(i)), iv(g.r.Int63n(8))}
	}
	return []*refTable{cust, ord, item}
}

const kindDomain = 50

// events generates EVENTS for mixed_rw: ID and TS sequential, KIND
// uniform over 50 values.
func events(g *gen, n int) *refTable {
	t := &refTable{
		name: "EVENTS", cols: []string{"ID", "TS", "KIND", "PAD"},
		strCols: map[int]bool{3: true},
		indexed: []string{"ID", "TS", "KIND"},
		rows:    make([][]val, n),
	}
	for i := range t.rows {
		id := int64(i)
		t.rows[i] = []val{iv(id), iv(id), iv(g.r.Int63n(kindDomain)), sv(pad(id, 60))}
	}
	return t
}

// colRef names a column of the tab-th table of a spec's FROM list.
type colRef struct{ tab, col int }

// pred is one comparison `column op :bind` with the bound value.
type pred struct {
	c    colRef
	op   string // "=", ">=", "<"
	bind string
	v    int64
}

func (p pred) holds(x int64) bool {
	switch p.op {
	case "=":
		return x == p.v
	case ">=":
		return x >= p.v
	case "<":
		return x < p.v
	}
	panic("benchmark bug: operator " + p.op)
}

// spec is the declarative form of a SELECT. The SQL text the engine
// sees is rendered from it and the oracle evaluates it by brute force,
// so the two can only agree if the engine is right.
type spec struct {
	from  []*refTable
	on    [][2]colRef // on[i] joins from[i+1] to an earlier table
	preds []pred
	or    bool     // preds are OR-ed instead of AND-ed
	proj  []colRef // nil = every column (single-table only)
	count bool
	order *colRef
	limit int
}

func (s *spec) colName(c colRef) string {
	t := s.from[c.tab]
	if len(s.from) > 1 {
		return t.name + "." + t.cols[c.col]
	}
	return t.cols[c.col]
}

// render produces the SQL text and the bind values.
func (s *spec) render() (string, map[string]any) {
	var b strings.Builder
	b.WriteString("SELECT ")
	switch {
	case s.count:
		b.WriteString("COUNT(*)")
	case s.proj == nil:
		b.WriteString("*")
	default:
		for i, c := range s.proj {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(s.colName(c))
		}
	}
	b.WriteString(" FROM " + s.from[0].name)
	for i, e := range s.on {
		fmt.Fprintf(&b, " JOIN %s ON %s = %s", s.from[i+1].name, s.colName(e[0]), s.colName(e[1]))
	}
	binds := map[string]any{}
	sep := " AND "
	if s.or {
		sep = " OR "
	}
	for i, p := range s.preds {
		if i == 0 {
			b.WriteString(" WHERE ")
		} else {
			b.WriteString(sep)
		}
		fmt.Fprintf(&b, "%s %s :%s", s.colName(p.c), p.op, p.bind)
		binds[p.bind] = p.v
	}
	if s.order != nil {
		b.WriteString(" ORDER BY " + s.colName(*s.order))
	}
	if s.limit > 0 {
		fmt.Fprintf(&b, " LIMIT %d", s.limit)
	}
	return b.String(), binds
}

// outCols is the result layout: the projection, or all columns.
func (s *spec) outCols() []colRef {
	if s.proj != nil {
		return s.proj
	}
	out := make([]colRef, len(s.from[0].cols))
	for i := range out {
		out[i] = colRef{0, i}
	}
	return out
}

// matches evaluates the restriction on one joined tuple (one row per
// FROM table).
func (s *spec) matches(tuple [][]val) bool {
	if len(s.preds) == 0 {
		return true
	}
	for _, p := range s.preds {
		ok := p.holds(tuple[p.c.tab][p.c.col].i)
		if ok && s.or {
			return true
		}
		if !ok && !s.or {
			return false
		}
	}
	return !s.or
}
