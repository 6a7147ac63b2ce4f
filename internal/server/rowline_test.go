// The wire edge's row encoder: byte identity of a row line with
// encoding/json, no allocation per row, and an error line — not a dead
// stream — for a value JSON cannot carry.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"divlaws"
)

// cellsDB is a database of one relation cells(k, v).
func cellsDB(rows [][]any) *divlaws.DB {
	db := divlaws.Open(divlaws.WithMemoryLimit(-1))
	db.MustRegister("cells", divlaws.MustNewRelation([]string{"k", "v"}, rows))
	return db
}

func TestRowLineMatchesEncodingJSON(t *testing.T) {
	cells := []any{
		nil, true, int64(math.MinInt64), 0.0, math.Copysign(0, -1), 3.0, 1e21, 1e-7, 123456789.125,
		"", "s000123", `"\`, "a\tb\n\x01", "<&>", "\u2028\u2029", "bad\xffutf8", "日本",
	}
	rows := make([][]any, len(cells))
	for i, c := range cells {
		rows[i] = []any{int64(i), c}
	}
	cur, err := cellsDB(rows).Query(context.Background(), "SELECT k, v FROM cells")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var buf []byte
	var want []byte
	for cur.Next() {
		natives := make([]any, 2)
		if err := cur.Scan(&natives[0], &natives[1]); err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(Line{Row: natives})
		if err != nil {
			t.Fatal(err)
		}
		want = append(append(want, line...), '\n')
		if buf, err = appendRowLine(buf, cur); err != nil {
			t.Fatal(err)
		}
	}
	if string(buf) != string(want) || strings.Count(string(buf), "\n") != len(cells) {
		t.Errorf("row lines differ from encoding/json's\ngot  %q\nwant %q", buf, want)
	}
}

func TestRowLineDoesNotAllocate(t *testing.T) {
	cur, err := cellsDB([][]any{{"s000123", "p017"}}).Query(context.Background(), "SELECT k, v FROM cells")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if !cur.Next() {
		t.Fatal("no row")
	}
	buf := make([]byte, 0, 256)
	if a := testing.AllocsPerRun(100, func() {
		if _, err := appendRowLine(buf, cur); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("the per-row step makes %.0f allocations, want 0", a)
	}
}

// TestUnencodableValueEndsStreamWithErrorLine: encoding/json refuses
// NaN and ±Inf, and the stream used to just stop there — no error
// line, no trailer — as if the client had gone away.
func TestUnencodableValueEndsStreamWithErrorLine(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		srv := New(cellsDB([][]any{{int64(1), 1.5}, {int64(2), f}, {int64(3), 2.5}}), Config{})
		ts := httptest.NewServer(srv)
		resp := postQuery(t, ts.URL, Request{Query: "SELECT k, v FROM cells ORDER BY k"})
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		ts.Close()
		if err != nil {
			t.Fatal(err)
		}
		st := readStream(t, strings.NewReader(string(body)))
		if resp.StatusCode != http.StatusOK || st.header == nil {
			t.Fatalf("%v: status %d, header %v", f, resp.StatusCode, st.header)
		}
		if st.rows != 1 || st.trailer != nil || !strings.Contains(st.errLine, `column "v"`) {
			t.Errorf("%v: %d rows, trailer %v, error %q; want the row before the value, no trailer, an error naming the column\n%s",
				f, st.rows, st.trailer, st.errLine, body)
		}
		if !strings.HasSuffix(string(body), "\"}\n") || !strings.Contains(string(body), "\n{\"error\":") {
			t.Errorf("%v: the error line is not the stream's last line\n%s", f, body)
		}
		if m := srv.Metrics(); m.Errored != 1 || m.Completed != 0 {
			t.Errorf("%v: errored %d completed %d, want 1 and 0", f, m.Errored, m.Completed)
		}
	}
}

// BenchmarkServeRows streams 40k two-column rows through the handler
// and an httptest listener: the served row path end to end, allocations
// reported.
func BenchmarkServeRows(b *testing.B) {
	const n = 40000
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{fmt.Sprintf("s%06d", i/20), fmt.Sprintf("p%03d", i%20)}
	}
	ts := httptest.NewServer(New(cellsDB(rows), Config{}))
	defer ts.Close()
	body, _ := json.Marshal(Request{Query: "SELECT k, v FROM cells"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(string(body)))
		if err != nil {
			b.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || strings.Count(string(got), "\n") != n+2 {
			b.Fatalf("read %d lines (%v), want %d", strings.Count(string(got), "\n"), err, n+2)
		}
	}
}
