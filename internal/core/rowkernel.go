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
// stepper, a fetch cursor, a fanOut worker — and is never shared.
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

// keyKernel prepares the part of e that ix's key decides, checked on an
// entry before its RID is fetched or listed; nil when there is none.
func keyKernel(e expr.Expr, binds expr.Bindings, ix *catalog.Index) *rowKernel {
	if local := ix.KeyRestriction(e); local != nil {
		return &rowKernel{filter: expr.NewFilter(local, binds)}
	}
	return nil
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
// nothing else.
func (k *rowKernel) entry(ix *catalog.Index, key []byte, scratch *expr.Row) (keep bool, err error) {
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

// emit pushes a survivor, decoded in *scratch, onto out as the delivered
// row — one exactly sized allocation plus one per delivered string — or,
// for a RID-delivering run, as its RID: every delivery site holds it.
func (k *rowKernel) emit(rid storage.RID, scratch *expr.Row, out *rowQueue) {
	if k.rids {
		out.push(expr.Row{expr.Int(int64(rid.Page.No)), expr.Int(int64(rid.Slot))})
		return
	}
	out.push(scratch.Own(k.proj))
}
