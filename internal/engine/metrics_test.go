package engine

import (
	"context"
	"reflect"
	"testing"
)

// TestMetricsCountOnlyWhatRan: a retrieval wins its tactic once it
// delivered a row or reached its end of data, and gives the
// estimate-error histogram a sample only when it reached its end, so a
// statement that ran nothing, or was cut short, cannot skew either. Each
// case runs one statement on a fresh point-query table and checks how
// far it moved the snapshot. CITY has no index, so ORDER BY CITY is a
// SORT node over a Tscan: a plain EXPLAIN of it starts the Tscan and
// closes it unread, touching no page.
func TestMetricsCountOnlyWhatRan(t *testing.T) {
	const src, sorted = "SELECT * FROM FAMILIES WHERE AGE >= 90", "SELECT * FROM FAMILIES ORDER BY CITY"
	for _, tc := range []struct {
		name, src string
		read      int    // rows read before Close; -1 reads to the end
		win       string // the tactic that wins; "" = none
		samples   int64
		idle      bool // the statement reads and hits no page
	}{
		{"plain EXPLAIN", "EXPLAIN " + src, -1, "", 0, false},
		{"LIMIT", src + " LIMIT 1", -1, "fast-first", 0, false},
		{"Close after the first row", src, 1, "background-only", 0, false},
		{"drained", src, -1, "background-only", 1, false},
		{"plain EXPLAIN under a SORT", "EXPLAIN " + sorted, -1, "", 0, true},
		{"drained under a SORT", sorted, -1, "tscan", 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := pointDB(t, Options{})
			before, pool := db.Metrics(), db.Pool().Stats()
			res, err := db.QueryContext(context.Background(), tc.src, nil)
			if err != nil {
				t.Fatal(err)
			}
			for n := 0; tc.read < 0 || n < tc.read; n++ {
				if _, ok, err := res.Next(); err != nil {
					t.Fatal(err)
				} else if !ok {
					break
				}
			}
			if err := res.Close(); err != nil {
				t.Fatal(err)
			}
			if io := db.Pool().Stats().Sub(pool); tc.idle && io.Reads+io.Hits != 0 {
				t.Errorf("the pool moved by %+v, want nothing", io)
			}
			after := db.Metrics()
			wantWins := map[string]int64{}
			if tc.win != "" {
				wantWins[tc.win] = 1
			}
			if got := mapDelta(before.TacticWins, after.TacticWins); !reflect.DeepEqual(got, wantWins) {
				t.Errorf("tactic wins moved by %v, want %v", got, wantWins)
			}
			var samples int64
			for _, n := range mapDelta(before.EstimateErrorLog, after.EstimateErrorLog) {
				samples += n
			}
			if samples != tc.samples {
				t.Errorf("%d estimate-error samples, want %d", samples, tc.samples)
			}
			if q := after.Queries - before.Queries; q != 1 {
				t.Errorf("queries moved by %d, want 1", q)
			}
		})
	}
}

// mapDelta returns the entries that moved from before to after, by how
// much.
func mapDelta(before, after map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for k, n := range after {
		if d := n - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}
