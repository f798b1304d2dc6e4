// Package catalog defines tables, columns, and index metadata, and keeps
// heap files and B-tree indexes consistent under inserts and deletes.
//
// Concurrency: the catalog registry is guarded by an RWMutex, so table
// registration and lookup are safe from any goroutine. Each table
// serializes its mutations (Insert/Update/Delete/CreateIndex) behind a
// per-table mutex; read paths (Fetch, index scans) may run concurrently
// with each other, but a mutation must not overlap reads of the same
// table — higher layers or the application schedule that.
//
// The catalog is also where the paper's per-query index classification
// (Section 4) gets its raw material: an index is *self-sufficient* for a
// query when its key columns cover every column the query touches,
// *order-needed* when its leading columns deliver the requested order,
// and *fetch-needed* otherwise.
package catalog

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"rdbdyn/internal/btree"
	"rdbdyn/internal/expr"
	"rdbdyn/internal/storage"
)

// Errors returned by the catalog.
var (
	ErrDuplicateTable = errors.New("catalog: table already exists")
	ErrNoSuchTable    = errors.New("catalog: no such table")
	ErrDuplicateIndex = errors.New("catalog: index already exists")
	ErrNoSuchIndex    = errors.New("catalog: no such index")
	ErrNoSuchColumn   = errors.New("catalog: no such column")
	ErrArity          = errors.New("catalog: row arity mismatch")
	ErrType           = errors.New("catalog: value type mismatch")
)

// Column describes one table column.
type Column struct {
	Name string
	Type expr.Type
}

// Catalog is the schema registry of one database. Registration and
// lookup are safe for concurrent use.
type Catalog struct {
	pool   *storage.BufferPool
	mu     sync.RWMutex
	tables map[string]*Table
}

// New creates an empty catalog over a buffer pool.
func New(pool *storage.BufferPool) *Catalog {
	return &Catalog{pool: pool, tables: make(map[string]*Table)}
}

// CreateTable registers a new table with the given columns.
func (c *Catalog) CreateTable(name string, cols []Column) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateTable, name)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("catalog: table %s has no columns", name)
	}
	seen := map[string]bool{}
	for _, col := range cols {
		if col.Name == "" || seen[col.Name] {
			return nil, fmt.Errorf("catalog: bad column name %q in %s", col.Name, name)
		}
		seen[col.Name] = true
	}
	t := &Table{
		Name:    name,
		Columns: append([]Column(nil), cols...),
		Heap:    storage.NewHeapFile(c.pool),
		pool:    c.pool,
	}
	c.tables[name] = t
	return t, nil
}

// Table looks a table up by name.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	t, ok := c.tables[name]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, name)
	}
	return t, nil
}

// Table is a named relation: a heap file plus its indexes.
type Table struct {
	Name    string
	Columns []Column
	Heap    *storage.HeapFile
	Indexes []*Index

	pool *storage.BufferPool
	// wmu serializes mutations (Insert/Update/Delete/CreateIndex,
	// DropIndex) so concurrent writers cannot corrupt the heap or the
	// index trees. Readers that need a consistent statistics snapshot
	// across cardinality, page counts, and index ranges (Stmt.Freeze's
	// sniffing pass) hold the read side for the duration.
	wmu sync.RWMutex
	// rec and key are the write path's encoding scratch, used under wmu:
	// the heap page and the B-tree copy what they keep.
	rec, key []byte
	// version counts schema changes (CreateIndex/DropIndex); statsEpoch
	// counts row mutations. Frozen plans, cache entries and the
	// optimizer's learned records stamp both (Stamp) and revalidate
	// lazily against them.
	version    atomic.Uint64
	statsEpoch atomic.Uint64
}

// ColumnIndex returns the position of the named column.
func (t *Table) ColumnIndex(name string) (int, error) {
	for i, c := range t.Columns {
		if c.Name == name {
			return i, nil
		}
	}
	return -1, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, t.Name, name)
}

// Cardinality returns the number of live rows.
func (t *Table) Cardinality() int64 { return t.Heap.Count() }

// Version returns the schema version: it advances whenever an index is
// created or dropped, invalidating any plan that chose among the
// table's indexes.
func (t *Table) Version() uint64 { return t.version.Load() }

// StatsEpoch returns the statistics epoch: it advances on every row
// mutation, so a plan frozen against stale cardinalities can detect
// how far the table has moved since.
func (t *Table) StatsEpoch() uint64 { return t.statsEpoch.Load() }

// Stamp is the catalog state a decision was derived from — a pinned
// plan, a learned cluster ratio, a correction factor: one table's
// schema version, statistics epoch and cardinality, or their sums over
// a join's tables.
type Stamp struct {
	version, epoch uint64
	card           int64
}

// StampOf stamps the current state of tabs.
func StampOf(tabs ...*Table) Stamp {
	var s Stamp
	for _, t := range tabs {
		s.version += t.Version()
		s.epoch += t.StatsEpoch()
		s.card += t.Cardinality()
	}
	return s
}

// Stale is the one staleness rule: a decision stamped s no longer holds
// in the state now when an index was created or dropped since, or when
// more than max(32, card/5) row mutations have landed, card being the
// cardinality at s.
func (s Stamp) Stale(now Stamp) bool {
	return now.version != s.version || now.epoch-s.epoch > max(32, uint64(s.card/5))
}

// RLock takes the table's mutation lock in read mode and returns the
// matching unlock. While held, no Insert/Update/Delete/CreateIndex/
// DropIndex can run, so statistics reads (Cardinality, Pages, index
// ranges) observe one consistent snapshot.
func (t *Table) RLock() func() {
	t.wmu.RLock()
	return t.wmu.RUnlock
}

// Pool returns the buffer pool the table's pages live on.
func (t *Table) Pool() *storage.BufferPool { return t.pool }

// Pages returns the number of heap pages — the cost of a full Tscan.
func (t *Table) Pages() int { return t.Heap.NumPages() }

// checkRow validates arity and types (NULL is allowed anywhere).
func (t *Table) checkRow(row expr.Row) error {
	if len(row) != len(t.Columns) {
		return fmt.Errorf("%w: got %d values for %d columns", ErrArity, len(row), len(t.Columns))
	}
	for i, v := range row {
		if v.IsNull() {
			continue
		}
		if v.T != t.Columns[i].Type {
			return fmt.Errorf("%w: column %s wants %s, got %s",
				ErrType, t.Columns[i].Name, t.Columns[i].Type, v.T)
		}
	}
	return nil
}

// Insert stores a row and maintains every index. It returns the row's
// RID. Inserts on the same table serialize behind a per-table mutex.
func (t *Table) Insert(row expr.Row) (storage.RID, error) {
	if err := t.checkRow(row); err != nil {
		return storage.RID{}, err
	}
	t.wmu.Lock()
	defer t.wmu.Unlock()
	t.rec = expr.AppendRow(t.rec[:0], row)
	rid, err := t.Heap.Insert(t.rec)
	if err != nil {
		return storage.RID{}, err
	}
	for _, ix := range t.Indexes {
		t.key = ix.AppendKey(t.key[:0], row)
		if err := ix.Tree.Insert(t.key, rid); err != nil {
			return storage.RID{}, fmt.Errorf("catalog: index %s: %w", ix.Name, err)
		}
	}
	t.statsEpoch.Add(1)
	return rid, nil
}

// Fetch reads and decodes the row at rid.
func (t *Table) Fetch(rid storage.RID) (expr.Row, error) { return t.FetchTracked(rid, nil) }

// FetchTracked is Fetch charging the page access to tr.
func (t *Table) FetchTracked(rid storage.RID, tr *storage.Tracker) (expr.Row, error) {
	rec, err := t.Heap.GetTracked(rid, tr)
	if err != nil {
		return nil, err
	}
	return expr.DecodeRow(rec)
}

// update replaces the row at rid, under the write lock, maintaining
// every index whose key changes; newRow has passed checkRow. A row that
// no longer fits its page moves to a new RID (relocate), so rid does not
// name it afterwards.
func (t *Table) update(rid storage.RID, oldRow, newRow expr.Row) error {
	p, err := t.pool.GetDirty(rid.Page)
	if err != nil {
		return err
	}
	t.rec = expr.AppendRow(t.rec[:0], newRow)
	if err := p.Update(rid.Slot, t.rec); err == storage.ErrPageFull {
		return t.relocate(rid, oldRow, newRow, t.rec)
	} else if err != nil {
		return err
	}
	for _, ix := range t.Indexes {
		oldKey, newKey := ix.KeyFor(oldRow), ix.KeyFor(newRow)
		if expr.CompareKeys(oldKey, newKey) == 0 {
			continue
		}
		if _, err := ix.Tree.Delete(oldKey, rid); err != nil {
			return fmt.Errorf("catalog: index %s: %w", ix.Name, err)
		}
		if err := ix.Tree.Insert(newKey, rid); err != nil {
			return fmt.Errorf("catalog: index %s: %w", ix.Name, err)
		}
	}
	t.statsEpoch.Add(1)
	return nil
}

// relocate moves a row whose new record rec no longer fits its page:
// rec is inserted wherever the heap puts a new record, the old slot is
// deleted, and every index entry follows the row to its new RID, its key
// changed or not. The insert comes first, so a record that fits no page
// fails with nothing changed.
func (t *Table) relocate(rid storage.RID, oldRow, newRow expr.Row, rec []byte) error {
	moved, err := t.Heap.Insert(rec)
	if err != nil {
		return err
	}
	if err := t.Heap.Delete(rid); err != nil {
		return err
	}
	for _, ix := range t.Indexes {
		if _, err := ix.Tree.Delete(ix.KeyFor(oldRow), rid); err != nil {
			return fmt.Errorf("catalog: index %s: %w", ix.Name, err)
		}
		if err := ix.Tree.Insert(ix.KeyFor(newRow), moved); err != nil {
			return fmt.Errorf("catalog: index %s: %w", ix.Name, err)
		}
	}
	t.statsEpoch.Add(1)
	return nil
}

// delete removes the fetched row at rid from the heap and all indexes,
// under the write lock.
func (t *Table) delete(rid storage.RID, row expr.Row) error {
	for _, ix := range t.Indexes {
		if _, err := ix.Tree.Delete(ix.KeyFor(row), rid); err != nil {
			return fmt.Errorf("catalog: index %s: %w", ix.Name, err)
		}
	}
	t.statsEpoch.Add(1)
	return t.Heap.Delete(rid)
}

// Mutate is the write path of DELETE and UPDATE, in two lock phases.
// collect returns the victims' RIDs; it is a read and runs under the
// read lock. change is then applied to every victim under the write
// lock: it returns the row's new contents, or nil to delete the row.
// The victims are collected completely before the first mutation, so a
// row that a change moves — along an index, or to a new RID when it
// outgrows its page — cannot match again. When another writer got
// in between the phases (the statistics epoch moved), the victims are
// collected once more, now under the write lock. Mutate returns the
// number of rows changed.
func (t *Table) Mutate(collect func() ([]storage.RID, error), change func(expr.Row) expr.Row) (int, error) {
	unlock := t.RLock()
	victims, err := collect()
	epoch := t.StatsEpoch()
	unlock()
	if err != nil {
		return 0, err
	}
	t.wmu.Lock()
	defer t.wmu.Unlock()
	if t.StatsEpoch() != epoch {
		if victims, err = collect(); err != nil {
			return 0, err
		}
	}
	for i, rid := range victims {
		row, err := t.Fetch(rid)
		if err != nil {
			return i, err
		}
		if newRow := change(row); newRow == nil {
			err = t.delete(rid, row)
		} else if err = t.checkRow(newRow); err == nil {
			err = t.update(rid, row, newRow)
		}
		if err != nil {
			return i, err
		}
	}
	return len(victims), nil
}

// CreateIndex builds a B-tree index over the named columns, populating
// it from existing rows.
func (t *Table) CreateIndex(name string, colNames ...string) (*Index, error) {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	for _, ix := range t.Indexes {
		if ix.Name == name {
			return nil, fmt.Errorf("%w: %s", ErrDuplicateIndex, name)
		}
	}
	if len(colNames) == 0 {
		return nil, fmt.Errorf("catalog: index %s has no columns", name)
	}
	cols := make([]int, len(colNames))
	for i, cn := range colNames {
		ci, err := t.ColumnIndex(cn)
		if err != nil {
			return nil, err
		}
		cols[i] = ci
	}
	tree, err := btree.New(t.pool, t.Heap.File())
	if err != nil {
		return nil, err
	}
	ix := &Index{Name: name, Table: t, Cols: cols, Tree: tree, types: make([]expr.Type, len(cols))}
	for i, c := range cols {
		ix.types[i] = t.Columns[c].Type
	}
	// Backfill from existing rows.
	c := t.Heap.Cursor()
	for {
		rec, rid, ok, err := c.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		row, err := expr.DecodeRow(rec)
		if err != nil {
			return nil, err
		}
		t.key = ix.AppendKey(t.key[:0], row)
		if err := tree.Insert(t.key, rid); err != nil {
			return nil, err
		}
	}
	t.Indexes = append(t.Indexes, ix)
	t.version.Add(1)
	return ix, nil
}

// DropIndex removes the named index from the table's index set and
// bumps the schema version so frozen plans and cache entries that
// chose it revalidate. The tree's pages are left to the pool (this
// simulator has no free-list); what matters is that no future plan
// can select the index.
func (t *Table) DropIndex(name string) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	for i, ix := range t.Indexes {
		if ix.Name == name {
			// Copy-on-write so an in-flight reader ranging over the old
			// slice never observes shifted elements.
			next := make([]*Index, 0, len(t.Indexes)-1)
			next = append(next, t.Indexes[:i]...)
			next = append(next, t.Indexes[i+1:]...)
			t.Indexes = next
			t.version.Add(1)
			return nil
		}
	}
	return fmt.Errorf("%w: %s.%s", ErrNoSuchIndex, t.Name, name)
}

// IndexByName looks an index up by name, or nil when absent.
func (t *Table) IndexByName(name string) *Index {
	for _, ix := range t.Indexes {
		if ix.Name == name {
			return ix
		}
	}
	return nil
}

// Index is a B-tree secondary index over one or more columns.
type Index struct {
	Name  string
	Table *Table
	Cols  []int // column positions; Cols[0] is the leading column
	Tree  *btree.BTree
	types []expr.Type // column types of Cols, fixed at creation
}

// LeadingCol returns the position of the index's leading column — the
// column whose restriction range drives the index scan.
func (ix *Index) LeadingCol() int { return ix.Cols[0] }

// KeyFor encodes the index key of a row.
func (ix *Index) KeyFor(row expr.Row) []byte { return ix.AppendKey(nil, row) }

// AppendKey appends the index key of a row to dst.
func (ix *Index) AppendKey(dst []byte, row expr.Row) []byte {
	for _, c := range ix.Cols {
		dst = expr.EncodeKey(dst, row[c])
	}
	return dst
}

// KeyTypes returns the types of the key columns, for DecodeKey. The
// slice is the index's own; callers must not modify it.
func (ix *Index) KeyTypes() []expr.Type { return ix.types }

// DecodeEntry converts an index entry key back into the key column
// values, positioned into a full-width row (non-key columns NULL) so
// restrictions that only touch key columns can be evaluated against it.
// The row is decoded into dst's backing array when that is wide enough
// — a scan passes its scratch row and allocates nothing per entry — and
// its strings may view key's memory (see expr.DecodeKeyInto).
func (ix *Index) DecodeEntry(key []byte, dst expr.Row) (expr.Row, error) {
	n := len(ix.Table.Columns)
	if cap(dst) < n {
		dst = make(expr.Row, n)
	}
	dst = dst[:n]
	clear(dst)
	if err := expr.DecodeKeyInto(key, ix.types, ix.Cols, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// Covers reports whether the index key columns include every column in
// cols — the self-sufficiency test of Section 4.
func (ix *Index) Covers(cols []int) bool {
	for _, c := range cols {
		found := false
		for _, k := range ix.Cols {
			if k == c {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// KeyRestriction returns what a scan of the index over the range
// RestrictionBounds(e, binds) still has to decide on an entry: the
// conjuncts of e whose columns all lie in the key, less the ones every
// entry of that range provably satisfies — or nil when nothing is left.
func (ix *Index) KeyRestriction(e expr.Expr, binds expr.Bindings) expr.Expr {
	bounded := ix.boundedCols(e, binds)
	var local []expr.Expr
	for _, cj := range expr.Conjuncts(e) {
		if !ix.impliedByRange(cj, binds, bounded) && ix.Covers(expr.Columns(cj)) {
			local = append(local, cj)
		}
	}
	if len(local) == 0 {
		return nil
	}
	return expr.NewAnd(local...)
}

// boundedCols counts the leading key columns whose sargable conjuncts
// RestrictionBounds turns into the key range: the equality-pinned
// prefix and the first column with a broader range.
func (ix *Index) boundedCols(e expr.Expr, binds expr.Bindings) int {
	for i, col := range ix.Cols {
		rg, n := expr.ExtractRange(e, col, binds)
		if n == 0 {
			return i
		}
		if !rg.IsPoint() {
			return i + 1
		}
	}
	return len(ix.Cols)
}

// impliedByRange reports whether every entry of the key range satisfies
// conjunct cj: a sargable comparison of one of the first bounded key
// columns. That column's part of the range is the intersection of all
// such comparisons, so never wider than cj's own, and holds no NULL key;
// expr.ProvedByKeyRange says whether that proves cj.
func (ix *Index) impliedByRange(cj expr.Expr, binds expr.Bindings, bounded int) bool {
	c, ok := cj.(*expr.Cmp)
	for i := 0; ok && i < bounded; i++ {
		if expr.ProvedByKeyRange(c, ix.Cols[i], ix.types[i], binds) {
			return true
		}
	}
	return false
}

// DeliversOrder reports whether an ascending scan of the index yields
// rows ordered by the given column positions — the order-needed test.
func (ix *Index) DeliversOrder(order []int) bool {
	if len(order) > len(ix.Cols) {
		return false
	}
	for i, c := range order {
		if ix.Cols[i] != c {
			return false
		}
	}
	return true
}

// RestrictionBounds derives the encoded key bounds an index scan must
// cover for a restriction under bindings, using as many key columns as
// the restriction pins: leading columns with point (equality) ranges
// extend the key prefix, the first column with a broader range
// contributes its bounds, and later columns are left to per-entry
// evaluation. A range with only an upper bound starts after the NULL
// keys: a NULL satisfies no comparison. It returns lo inclusive / hi
// exclusive (nil = open), how many conjuncts contributed, and whether
// the range is provably empty — only ever after some conjunct
// contributed, so empty implies sargable > 0.
func (ix *Index) RestrictionBounds(e expr.Expr, binds expr.Bindings) (lo, hi []byte, sargable int, empty bool) {
	var prefix []expr.Value
	for _, col := range ix.Cols {
		rg, n := expr.ExtractRange(e, col, binds)
		if n == 0 {
			break
		}
		sargable += n
		if rg.Empty() {
			return nil, nil, sargable, true
		}
		if rg.IsPoint() {
			prefix = append(prefix, rg.Lo.Value)
			continue
		}
		// First non-point column: combine prefix and range bounds.
		base := expr.EncodeKey(nil, prefix...)
		if rg.Lo.Present {
			lo = expr.EncodeKey(append([]byte(nil), base...), rg.Lo.Value)
			if !rg.Lo.Inclusive {
				lo = expr.KeySuccessor(lo)
			}
		} else {
			lo = expr.KeySuccessor(expr.EncodeKey(append([]byte(nil), base...), expr.Null()))
		}
		if rg.Hi.Present {
			hi = expr.EncodeKey(append([]byte(nil), base...), rg.Hi.Value)
			if rg.Hi.Inclusive {
				hi = expr.KeySuccessor(hi)
			}
		} else if len(prefix) > 0 {
			hi = expr.KeySuccessor(base)
		}
		return lo, hi, sargable, false
	}
	if len(prefix) == 0 {
		return nil, nil, sargable, false
	}
	base := expr.EncodeKey(nil, prefix...)
	return base, expr.KeySuccessor(base), sargable, false
}

// PointRange reports whether the bounds [lo, hi) RestrictionBounds
// derived pin every key column with an equality — hi is KeySuccessor(lo)
// and lo a whole key — so the range is one key value and its entries
// ascend by RID.
func (ix *Index) PointRange(lo, hi []byte) bool {
	return len(hi) == len(lo)+1 && hi[len(lo)] == 0xFF && bytes.HasPrefix(hi, lo) &&
		expr.KeyValues(lo) == len(ix.Cols)
}

// EstimateClusterRatio samples consecutive index entries and reports
// the fraction whose RIDs land on the same or adjacent heap page — the
// clustering effect of Section 3(b), which "may not be known or may be
// hard to detect" and is measured here by cheap ranked sampling.
func (ix *Index) EstimateClusterRatio(rng *rand.Rand, samples int) (float64, error) {
	n := ix.Tree.Len()
	if n < 2 {
		return 1, nil
	}
	if samples < 1 {
		samples = 1
	}
	hits := 0
	for i := 0; i < samples; i++ {
		r := rng.Int63n(n - 1)
		_, rid1, err := ix.Tree.EntryAt(r)
		if err != nil {
			return 0, err
		}
		_, rid2, err := ix.Tree.EntryAt(r + 1)
		if err != nil {
			return 0, err
		}
		d := int64(rid2.Page.No) - int64(rid1.Page.No)
		if d < 0 {
			d = -d
		}
		if d <= 1 {
			hits++
		}
	}
	return float64(hits) / float64(samples), nil
}
