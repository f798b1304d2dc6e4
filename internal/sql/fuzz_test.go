package sql

import (
	"reflect"
	"testing"
	"unicode/utf8"
)

// FuzzParse drives the SQL parser with arbitrary input. The parser
// must never panic: any input either parses to a statement or returns
// an error. ParseStatement, which also parses DML, must give every
// query Parse accepts exactly the statement Parse gives.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT * FROM FAMILIES",
		"SELECT * FROM FAMILIES WHERE AGE >= :A1",
		"SELECT ID, AGE FROM FAMILIES WHERE AGE < 30 AND CITY = 7 ORDER BY AGE DESC LIMIT 10",
		"SELECT COUNT(*) FROM FAMILIES WHERE AGE BETWEEN 10 AND 20",
		"EXPLAIN ANALYZE SELECT * FROM T WHERE A = 1 OR B = 2",
		"EXISTS (SELECT * FROM T WHERE X IS NOT NULL)",
		"SELECT MIN(AGE) FROM T WHERE NOT (A = 1) OPTIMIZE FOR FAST FIRST",
		"INSERT INTO T VALUES (1, 'x', 2.5)",
		"DELETE FROM T WHERE ID = 3",
		"UPDATE T SET A = 1 WHERE B = 2",
		"SELECT * FROM T WHERE S = 'it''s'",
		"SELECT * FROM",
		"((((",
		"SELECT * FROM T WHERE A = 9223372036854775807",
		"SELECT * FROM A JOIN B ON A.X = B.Y",
		"SELECT A.X, B.Y FROM A JOIN B ON A.X = B.Y WHERE A.Z >= :P ORDER BY B.Y",
		"SELECT * FROM A INNER JOIN B ON A.X = B.Y JOIN C ON B.Z = C.W",
		"SELECT COUNT(*) FROM A, B WHERE A.X = B.Y AND A.K = 1",
		"EXPLAIN ANALYZE SELECT * FROM A JOIN B ON A.X = B.Y LIMIT TO 3 ROWS",
		"SELECT * FROM A JOIN B ON",
		"SELECT * FROM A JOIN",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 || !utf8.ValidString(src) {
			return
		}
		// Neither entry point may panic; errors are the contract for
		// garbage input.
		sel, err := Parse(src)
		if err == nil {
			// A parsed SELECT must tokenize cleanly a second time.
			if _, err2 := Parse(src); err2 != nil {
				t.Fatalf("Parse accepted then rejected the same input %q: %v", src, err2)
			}
		}
		// ParseStatement parses a query exactly as Parse does.
		stmt, err2 := ParseStatement(src)
		if err == nil && (err2 != nil || !reflect.DeepEqual(stmt, Statement(sel))) {
			t.Fatalf("ParseStatement(%q) = %#v, %v; Parse gave %#v", src, stmt, err2, sel)
		}
	})
}
