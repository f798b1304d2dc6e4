// Package workload generates the synthetic tables and query streams the
// experiments run on: uniform and Zipf-skewed column distributions,
// sequential (clustered) keys, correlated column pairs, and padding to
// control rows-per-page. The paper's phenomena — data skew, unknown
// correlation, clustering uncertainty — are all induced here under
// deterministic seeds.
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"rdbdyn/internal/catalog"
	"rdbdyn/internal/expr"
)

// Generator produces one column value per row. It may inspect the
// values generated so far for the same row (earlier columns), which is
// how correlated columns are built.
type Generator interface {
	Next(rng *rand.Rand, row expr.Row) expr.Value
	// Type returns the value type the generator produces.
	Type() expr.Type
}

// Seq yields 0, 1, 2, ... — a clustered unique key when rows are
// inserted in generation order.
type Seq struct{ n int64 }

// Next implements Generator.
func (s *Seq) Next(*rand.Rand, expr.Row) expr.Value {
	v := expr.Int(s.n)
	s.n++
	return v
}

// Type implements Generator.
func (s *Seq) Type() expr.Type { return expr.TypeInt }

// Uniform yields integers uniform in [Lo, Hi).
type Uniform struct{ Lo, Hi int64 }

// Next implements Generator.
func (u Uniform) Next(rng *rand.Rand, _ expr.Row) expr.Value {
	return expr.Int(u.Lo + rng.Int63n(u.Hi-u.Lo))
}

// Type implements Generator.
func (u Uniform) Type() expr.Type { return expr.TypeInt }

// Zipf yields integers in [0, N) with Zipf(S, V) skew: value 0 is the
// hottest. The paper cites [Zipf49] as the shape intermediate
// selectivity distributions converge to.
type Zipf struct {
	S, V float64
	N    uint64
	z    *rand.Zipf
	rng  *rand.Rand
}

// Next implements Generator.
func (z *Zipf) Next(rng *rand.Rand, _ expr.Row) expr.Value {
	if z.z == nil || z.rng != rng {
		s, v := z.S, z.V
		if s <= 1 {
			s = 1.2
		}
		if v < 1 {
			v = 1
		}
		z.z = rand.NewZipf(rng, s, v, z.N-1)
		z.rng = rng
	}
	return expr.Int(int64(z.z.Uint64()))
}

// Type implements Generator.
func (z *Zipf) Type() expr.Type { return expr.TypeInt }

// UniformFloat yields floats uniform in [Lo, Hi).
type UniformFloat struct{ Lo, Hi float64 }

// Next implements Generator.
func (u UniformFloat) Next(rng *rand.Rand, _ expr.Row) expr.Value {
	return expr.Float(u.Lo + rng.Float64()*(u.Hi-u.Lo))
}

// Type implements Generator.
func (u UniformFloat) Type() expr.Type { return expr.TypeFloat }

// Pad yields a fixed-length string, controlling record width (and thus
// rows per page / table pages).
type Pad struct{ Len int }

// Next implements Generator.
func (p Pad) Next(*rand.Rand, expr.Row) expr.Value {
	return expr.Str(strings.Repeat("x", p.Len))
}

// Type implements Generator.
func (p Pad) Type() expr.Type { return expr.TypeString }

// Correlated yields Source-column value plus uniform noise in
// [-Noise, +Noise] — a knob for the between-column correlation that
// defeats independence assumptions (Section 2).
type Correlated struct {
	Source int
	Noise  int64
}

// Next implements Generator.
func (c Correlated) Next(rng *rand.Rand, row expr.Row) expr.Value {
	base := row[c.Source].I
	if c.Noise == 0 {
		return expr.Int(base)
	}
	return expr.Int(base + rng.Int63n(2*c.Noise+1) - c.Noise)
}

// Type implements Generator.
func (c Correlated) Type() expr.Type { return expr.TypeInt }

// ColumnSpec names one generated column.
type ColumnSpec struct {
	Name string
	Gen  Generator
}

// TableSpec describes a synthetic table.
type TableSpec struct {
	Name    string
	Rows    int
	Columns []ColumnSpec
	// Indexes lists indexes to create after loading, each a list of
	// column names.
	Indexes [][]string
	// Shuffle randomizes insertion order, destroying the clustering of
	// Seq columns.
	Shuffle bool
	Seed    int64
}

// Build creates and loads the table described by spec.
func Build(cat *catalog.Catalog, spec TableSpec) (*catalog.Table, error) {
	if spec.Rows < 0 {
		return nil, fmt.Errorf("workload: negative row count")
	}
	cols := make([]catalog.Column, len(spec.Columns))
	for i, c := range spec.Columns {
		cols[i] = catalog.Column{Name: c.Name, Type: c.Gen.Type()}
	}
	tab, err := cat.CreateTable(spec.Name, cols)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed + 1))
	rows := make([]expr.Row, spec.Rows)
	for i := range rows {
		row := make(expr.Row, len(spec.Columns))
		for j, c := range spec.Columns {
			row[j] = c.Gen.Next(rng, row)
		}
		rows[i] = row
	}
	if spec.Shuffle {
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	}
	for _, row := range rows {
		if _, err := tab.Insert(row); err != nil {
			return nil, err
		}
	}
	for i, ixCols := range spec.Indexes {
		name := fmt.Sprintf("%s_IX%d_%s", spec.Name, i, strings.Join(ixCols, "_"))
		if _, err := tab.CreateIndex(name, ixCols...); err != nil {
			return nil, err
		}
	}
	return tab, nil
}
