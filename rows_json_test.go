// Rows.AppendJSON: byte identity with encoding/json on every value
// kind, and the same cursor protocol as Scan.
package divlaws

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// jsonCells is one cell per way a hand-written JSON encoder and
// encoding/json could part ways.
func jsonCells() []any {
	return []any{
		nil, true, false,
		int64(0), int64(-1), int64(math.MinInt64), int64(math.MaxInt64),
		0.0, math.Copysign(0, -1), 1.0, -3.0, 1e15, 123456789.125, 1e20, 1e21, -1e21, 1.5e300,
		1e-6, 1e-7, -1e-7, 1.5e-10, 5e-324, 0.1,
		"", "blue", `say "hi"`, `back\slash`, "tab\there\nnewline\r\b\f", "\x00\x01\x1f\x7f",
		"<script>&amp;</script>", "line\u2028sep\u2029", "café 日本 \U0001F600", "bad\xff\xfeutf8\xc3", "\xed\xa0\x80",
	}
}

// queryCells registers rows of (k, v, w) and opens a cursor over them.
func queryCells(t testing.TB, rows [][]any) *Rows {
	t.Helper()
	db := Open()
	db.MustRegister("cells", MustNewRelation([]string{"k", "v", "w"}, rows))
	cur, err := db.Query(context.Background(), "SELECT k, v, w FROM cells")
	if err != nil {
		t.Fatal(err)
	}
	return cur
}

func TestRowsAppendJSONMatchesEncodingJSON(t *testing.T) {
	cells := jsonCells()
	rows := make([][]any, len(cells))
	for i, c := range cells {
		rows[i] = []any{int64(i), c, cells[len(cells)-1-i]}
	}
	cur := queryCells(t, rows)
	defer cur.Close()
	n := 0
	buf := []byte("x")
	for cur.Next() {
		natives := make([]any, 3)
		if err := cur.Scan(&natives[0], &natives[1], &natives[2]); err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(natives)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cur.AppendJSON(buf[:1])
		if err != nil || string(got) != "x"+string(want) {
			t.Errorf("row %v: AppendJSON = (%q, %v), encoding/json writes %q", natives, got, err, want)
		}
		// AppendJSON does not consume the row.
		var again [3]any
		if err := cur.Scan(&again[0], &again[1], &again[2]); err != nil {
			t.Errorf("Scan after AppendJSON on the same row: %v", err)
		}
		n++
	}
	if err := cur.Err(); err != nil || n != len(cells) {
		t.Fatalf("streamed %d rows (%v), want %d", n, cur.Err(), len(cells))
	}
}

// TestRowsAppendJSONProtocol: without a current row AppendJSON fails
// as Scan does and leaves dst alone; so does a float JSON cannot carry.
func TestRowsAppendJSONProtocol(t *testing.T) {
	expect := func(cur *Rows, when, wantMsg string) {
		t.Helper()
		got, err := cur.AppendJSON([]byte("x"))
		if err == nil || !strings.Contains(err.Error(), wantMsg) || string(got) != "x" {
			t.Errorf("AppendJSON %s = (%q, %v), want dst unchanged and an error mentioning %q", when, got, err, wantMsg)
		}
		if serr := cur.Scan(new(any), new(any), new(any)); (serr == nil) != (err == nil) {
			t.Errorf("%s: Scan says %v, AppendJSON says %v", when, serr, err)
		}
	}
	cur := queryCells(t, [][]any{{int64(1), "a", nil}})
	expect(cur, "before Next", "without a successful Next")
	if !cur.Next() {
		t.Fatal("no row")
	}
	if cur.Next() {
		t.Fatal("a second row")
	}
	expect(cur, "after exhaustion", "without a successful Next")
	cur.Close()
	expect(cur, "after Close", "after Close")

	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cur := queryCells(t, [][]any{{int64(1), f, "s"}})
		if !cur.Next() {
			t.Fatal("no row")
		}
		got, err := cur.AppendJSON([]byte("x"))
		if err == nil || !strings.Contains(err.Error(), `column "v"`) || string(got) != "x" {
			t.Errorf("%v: AppendJSON = (%q, %v), want dst unchanged and an error naming the column", f, got, err)
		}
		cur.Close()
	}
}

// FuzzRowJSON: on any string, float and integer, AppendJSON writes
// what encoding/json writes, and fails where it fails.
func FuzzRowJSON(f *testing.F) {
	f.Add("blue", uint64(0x3ff8000000000000), int64(7))
	f.Add("<\"\\\x00 \xff>&", math.Float64bits(1e21), int64(math.MinInt64))
	f.Add("\xe2\x80", math.Float64bits(9.999999e-7), int64(-1))
	f.Add("", math.Float64bits(math.NaN()), int64(0))
	f.Fuzz(func(t *testing.T, s string, bits uint64, i int64) {
		natives := []any{i, math.Float64frombits(bits), s}
		cur := queryCells(t, [][]any{natives})
		defer cur.Close()
		if !cur.Next() {
			t.Fatal("no row")
		}
		want, wantErr := json.Marshal(natives)
		got, err := cur.AppendJSON(nil)
		if (err != nil) != (wantErr != nil) || string(got) != string(want) {
			t.Fatalf("AppendJSON = (%q, %v), encoding/json = (%q, %v)", got, err, want, wantErr)
		}
	})
}
