package main

import "rdbdyn/internal/engine"

// mixed_rw op generation. Every client owns a disjoint ID range for its
// inserts and only ever updates or deletes its own rows, and the base
// rows are immutable, so the outcome of every op is known when the list
// is generated: the generator keeps a per-client shadow map of that
// client's inserts, updates and deletes and writes the expectation into
// the op. Each pass starts from a fresh database, so the expectations
// hold on every pass.

var (
	rwClassNames = []string{"point", "short_range", "fast_first", "insert", "update", "delete"}
	// The ISSUE's 35/5/5 insert/update/delete became 41/2/2 (README,
	// "Departures"): the same 45 % of mutations, fewer 4.5 ms DML scans.
	rwShares = []float64{0.35, 0.10, 0.10, 0.41, 0.02, 0.02}
)

const (
	rwPoint = iota
	rwShortRange
	rwFastFirst
	rwInsert
	rwUpdate
	rwDelete

	rwClientStride = 1_000_000 // client c inserts IDs base + (c+1)*stride + seq
	rwRangeWidth   = 10
)

// rwClient is one client's generation state.
type rwClient struct {
	live     map[int64]int64    // own live rows: id → current KIND
	liveIDs  []int64            // keys of live, for uniform choice
	allIDs   []int64            // every id this client ever inserts
	versions map[int64][]uint64 // id → hash of every version ever written
	seq      int64
	cross    []int // indexes of ops reading the other client's rows
}

func eventRow(id, kind int64) []val {
	return []val{iv(id), iv(id), iv(kind), sv(pad(id, 60))}
}

func genRW(g *gen, t *refTable, clients, n, nWarm int) (lists [][]op, warm []op) {
	base := int64(len(t.rows))
	one := []*refTable{t}
	idc, tsc, kindc := colRef{0, t.col("ID")}, colRef{0, t.col("TS")}, colRef{0, t.col("KIND")}

	counts := classCounts(rwShares, n)

	pointBase := func(class int, u float64) op {
		id := int64(u * float64(base))
		o := queryOp(&spec{from: one, preds: []pred{{idc, "=", "id", id}}})
		o.class, o.wantCount, o.anyOf = class, 1, []uint64{hashVals(t.rows[id])}
		return o
	}
	shortRange := func(class int, u float64) op {
		lo := int64(u * float64(base-rwRangeWidth))
		o := queryOp(&spec{from: one, preds: []pred{{tsc, ">=", "lo", lo}, {tsc, "<", "hi", lo + rwRangeWidth}}})
		o.class, o.wantCount = class, rwRangeWidth
		return o
	}
	fastFirst := func(class int, u float64) op {
		o := queryOp(&spec{from: one, preds: []pred{{kindc, "=", "k", int64(u * kindDomain)}}, limit: 5})
		o.class, o.wantCount = class, 5 // the immutable base rows alone hold more than 5 of every KIND
		return o
	}

	state := make([]*rwClient, clients)
	lists = make([][]op, clients)
	for c := 0; c < clients; c++ {
		st := &rwClient{live: map[int64]int64{}, versions: map[int64][]uint64{}}
		state[c] = st
		// Class sequence: exact counts, shuffled, then repaired so an
		// update or delete never precedes the insert it needs.
		seq := make([]int, 0, n)
		for ci, k := range counts {
			for i := 0; i < k; i++ {
				seq = append(seq, ci)
			}
		}
		g.r.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
		liveN := 0
		for i, ci := range seq {
			if (ci == rwUpdate || ci == rwDelete) && liveN == 0 {
				for j := i + 1; j < len(seq); j++ {
					if seq[j] == rwInsert {
						seq[i], seq[j] = seq[j], seq[i]
						break
					}
				}
			}
			switch seq[i] {
			case rwInsert:
				liveN++
			case rwDelete:
				liveN--
			}
		}

		seen := make([]int, len(counts)) // ops generated so far per class, for stratification
		ops := make([]op, 0, n)
		for _, ci := range seq {
			k := seen[ci]
			seen[ci]++
			u := g.strat(k, counts[ci])
			switch ci {
			case rwPoint:
				switch target := g.r.Float64(); {
				case target < 0.3 && len(st.allIDs) > 0:
					// One of this client's own rows, live or deleted.
					id := st.allIDs[g.r.Intn(len(st.allIDs))]
					o := queryOp(&spec{from: one, preds: []pred{{idc, "=", "id", id}}})
					o.class = ci
					if kind, ok := st.live[id]; ok {
						o.wantCount, o.anyOf = 1, []uint64{hashVals(eventRow(id, kind))}
					} else {
						o.wantCount = 0
					}
					ops = append(ops, o)
				case target < 0.4 && clients > 1:
					// A row of the next client: filled in once every
					// client's write history is known.
					st.cross = append(st.cross, len(ops))
					ops = append(ops, op{class: ci})
				default:
					ops = append(ops, pointBase(ci, u))
				}
			case rwShortRange:
				ops = append(ops, shortRange(ci, u))
			case rwFastFirst:
				ops = append(ops, fastFirst(ci, u))
			case rwInsert:
				id := base + int64(c+1)*rwClientStride + st.seq
				st.seq++
				kind := g.r.Int63n(kindDomain)
				st.live[id] = kind
				st.liveIDs = append(st.liveIDs, id)
				st.allIDs = append(st.allIDs, id)
				st.versions[id] = append(st.versions[id], hashVals(eventRow(id, kind)))
				ops = append(ops, op{class: ci, kind: opInsert, wantCount: 1, orderPos: -1,
					sql:   "INSERT INTO EVENTS VALUES (:id, :ts, :kind, :pad)",
					binds: engine.Binds{"id": id, "ts": id, "kind": kind, "pad": pad(id, 60)}})
			case rwUpdate, rwDelete:
				at := g.r.Intn(len(st.liveIDs))
				id := st.liveIDs[at]
				if ci == rwUpdate {
					kind := g.r.Int63n(kindDomain)
					st.live[id] = kind
					st.versions[id] = append(st.versions[id], hashVals(eventRow(id, kind)))
					ops = append(ops, op{class: ci, kind: opUpdate, wantCount: 1, orderPos: -1,
						sql:   "UPDATE EVENTS SET KIND = :k WHERE ID = :id",
						binds: engine.Binds{"k": kind, "id": id}})
					break
				}
				delete(st.live, id)
				st.liveIDs[at] = st.liveIDs[len(st.liveIDs)-1]
				st.liveIDs = st.liveIDs[:len(st.liveIDs)-1]
				ops = append(ops, op{class: ci, kind: opDelete, wantCount: 1, orderPos: -1,
					sql:   "DELETE FROM EVENTS WHERE ID = :id",
					binds: engine.Binds{"id": id}})
			}
		}
		lists[c] = ops
	}
	// Cross-client reads: the row may or may not exist yet, but if it
	// does it must be a version its owner wrote.
	for c, st := range state {
		other := state[(c+1)%clients]
		for _, at := range st.cross {
			if len(other.allIDs) == 0 {
				lists[c][at] = pointBase(rwPoint, g.r.Float64())
				continue
			}
			id := other.allIDs[g.r.Intn(len(other.allIDs))]
			o := queryOp(&spec{from: one, preds: []pred{{idc, "=", "id", id}}})
			o.class, o.anyOf = rwPoint, other.versions[id]
			lists[c][at] = o
		}
	}

	warm = make([]op, 0, nWarm)
	for i := 0; i < nWarm; i++ {
		u := g.strat(i, nWarm)
		switch {
		case i%11 < 7:
			warm = append(warm, pointBase(rwPoint, u))
		case i%11 < 9:
			warm = append(warm, shortRange(rwShortRange, u))
		default:
			warm = append(warm, fastFirst(rwFastFirst, u))
		}
	}
	return lists, warm
}
