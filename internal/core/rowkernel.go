package core

import (
	"rdbdyn/internal/catalog"
	"rdbdyn/internal/expr"
	"rdbdyn/internal/storage"
)

// rowKernel is the engine's one row path (DESIGN.md, "Row kernel"):
// decide on the encoded record or index key, materialize only what
// survives, straight into what is delivered. A kernel is prepared once
// per retrieval, immutable afterwards and shared by partition workers;
// the scratch row a call decodes into belongs to one consumer — a
// stepper, a fetch cursor, a morsel worker — and is never shared.
type rowKernel struct {
	filter *expr.Filter // the restriction, host variables resolved; nil = none
	need   expr.ColSet  // columns the filter or a consumer reads; nil = all
	proj   []int        // delivered columns; nil = the whole row
	rids   bool         // deliver each survivor's RID in place of its columns (Query.RIDs)
}

// kernel prepares q's restriction under its bindings, delivering its
// projection.
func (q *Query) kernel() *rowKernel {
	k := &rowKernel{filter: expr.NewFilter(q.Restriction, q.Binds), proj: q.Projection, rids: q.RIDs}
	if q.Projection != nil {
		k.need = expr.Cols(len(q.Table.Columns), q.neededColumns()...)
	}
	return k
}

// keyKernel prepares what a scan of ix over RestrictionBounds(e, binds)
// still has to decide on an entry before its RID is fetched or listed —
// the conjuncts ix's key holds, less those the range already proves
// (Index.KeyRestriction); nil when there is nothing left.
func keyKernel(e expr.Expr, binds expr.Bindings, ix *catalog.Index) *rowKernel {
	if local := ix.KeyRestriction(e, binds); local != nil {
		return &rowKernel{filter: expr.NewFilter(local, binds)}
	}
	return nil
}

// sscanKernel is q's kernel for a self-sufficient scan of ix: the key
// holds every column q reads, so the key kernel's filter is the whole
// restriction and its survivors are delivered.
func (q *Query) sscanKernel(ix *catalog.Index) *rowKernel {
	return &rowKernel{filter: expr.NewFilter(ix.KeyRestriction(q.Restriction, q.Binds), q.Binds), proj: q.Projection, rids: q.RIDs}
}

// record decides one heap record: its needed columns are decoded into
// *scratch (a view sharing rec's memory; the whole record is validated
// whatever the filter would say) and filtered. A rejected record has
// allocated nothing; a survivor's view stays in *scratch to be owned.
func (k *rowKernel) record(rec []byte, scratch *expr.Row) (keep bool, err error) {
	if *scratch, err = expr.DecodeView(rec, *scratch, k.need); err != nil {
		return false, err
	}
	return k.filter.Eval(*scratch)
}

// entry is record for an entry of ix, which carries its key columns and
// nothing else. A kernel that reads nothing of the key — no filter left,
// no column delivered — does not decode it.
func (k *rowKernel) entry(ix *catalog.Index, key []byte, scratch *expr.Row) (keep bool, err error) {
	if k.filter == nil && (k.rids || k.proj != nil && len(k.proj) == 0) {
		return true, nil
	}
	if *scratch, err = ix.DecodeEntry(key, *scratch); err != nil {
		return false, err
	}
	return k.filter.Eval(*scratch)
}

// deliver decides the record rec at rid and hands a survivor over.
func (k *rowKernel) deliver(rid storage.RID, rec []byte, scratch *expr.Row, out *rowQueue) (keep bool, err error) {
	if keep, err = k.record(rec, scratch); keep {
		k.emit(rid, scratch, out)
	}
	return keep, err
}

// emit hands a survivor, decoded in *scratch, to out as the delivered
// row or, for a RID-delivering run, as its RID: every delivery site
// holds it. The row is out's to own at the end of the step (rowQueue).
func (k *rowKernel) emit(rid storage.RID, scratch *expr.Row, out *rowQueue) {
	if k.rids {
		out.keep(expr.Row{expr.Int(int64(rid.Page.No)), expr.Int(int64(rid.Slot))}, nil)
		return
	}
	out.keep(*scratch, k.proj)
}
