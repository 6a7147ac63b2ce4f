package spill

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"divlaws/internal/hashkey"
	"divlaws/internal/relation"
	"divlaws/internal/value"
)

// The run codec's contracts: no heap object per tuple on either edge,
// owned tuples that outlive everything, a string cache that is exact
// under forced collisions and scales with the budget, and corrupt
// input that errors instead of panicking.

// writtenRun appends tuples to a fresh run.
func writtenRun(t testing.TB, tr *Tracker, tuples []relation.Tuple) *Run {
	t.Helper()
	run, err := tr.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range tuples {
		if err := run.Append(tu); err != nil {
			t.Fatal(err)
		}
	}
	return run
}

// rawRun is a run whose file holds data verbatim, rewound for reading:
// what a reader sees of a corrupt or truncated file.
func rawRun(t testing.TB, tr *Tracker, data []byte) *Run {
	t.Helper()
	run, err := tr.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.w.Write(data); err != nil {
		t.Fatal(err)
	}
	run.size = int64(len(data))
	if err := run.Rewind(); err != nil {
		t.Fatal(err)
	}
	return run
}

// readModes are the two ways a consumer takes a tuple off a run:
// borrowed, and owned by copying it into a slab charged to the run's
// tracker, bounded as the sort merge bounds its own.
func readModes(run *Run) []func(*StringCache) (relation.Tuple, error) {
	slab := &relation.Slab{Charge: run.t.Charge, Release: run.t.Release, MaxValues: 128}
	return []func(*StringCache) (relation.Tuple, error){run.Next, func(c *StringCache) (relation.Tuple, error) {
		t, err := run.Next(c)
		if err != nil {
			return nil, err
		}
		return slab.Concat(t, nil), nil
	}}
}

// readAll drains a rewound run through next, keeping what it returns;
// with clone set, a copy of it.
func readAll(strs *StringCache, next func(*StringCache) (relation.Tuple, error), clone bool) ([]relation.Tuple, error) {
	var out []relation.Tuple
	for {
		tu, err := next(strs)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		if clone {
			tu = tu.Clone()
		}
		out = append(out, tu)
	}
}

// supplierTuples is the benchmark's shape: two string columns, the
// second repeating.
func supplierTuples(n int) []relation.Tuple {
	out := make([]relation.Tuple, n)
	for i := range out {
		out[i] = relation.Tuple{value.String(fmt.Sprintf("s%06d", i%50)), value.String(fmt.Sprintf("p%03d", i%7))}
	}
	return out
}

// slotDistinct returns n strings no two of which share a slot of strs's
// direct-mapped cache, so that none evicts another.
func slotDistinct(strs *StringCache, n int) []string {
	strs.intern(nil) // the slots are built at the first string
	taken := map[uint64]bool{}
	var out []string
	for i := 0; len(out) < n; i++ {
		s := fmt.Sprintf("s%06d", i)
		if slot := hashkey.Sum64([]byte(s)) & uint64(len(strs.slots)-1); !taken[slot] {
			taken[slot] = true
			out = append(out, s)
		}
	}
	return out
}

func TestCodecAllocGates(t *testing.T) {
	const n = 1024
	tr := NewTracker(1 << 20)
	defer tr.Close()
	strs := tr.NewStringCache()
	defer strs.Close()
	names := slotDistinct(strs, 57)
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tuples[i] = relation.Tuple{value.String(names[i%50]), value.String(names[50+i%7])}
	}

	run, err := tr.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	if a := testing.AllocsPerRun(5, func() {
		for _, tu := range tuples {
			if err := run.Append(tu); err != nil {
				t.Fatal(err)
			}
		}
	}); a != 0 {
		t.Errorf("Append: %.0f allocations per %d tuples, want 0", a, n)
	}

	drain := func(next func(*StringCache) (relation.Tuple, error)) func() {
		return func() {
			if err := run.Rewind(); err != nil {
				t.Fatal(err)
			}
			for {
				if _, err := next(strs); err == io.EOF {
					return
				} else if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	drain(run.Next)() // warm the string cache and the scratch
	if a := testing.AllocsPerRun(5, drain(run.Next)); a != 0 {
		t.Errorf("borrowed read: %.0f allocations per pass over repeating strings, want 0", a)
	}
	perPass := float64(run.Len())
	if a := testing.AllocsPerRun(5, drain(readModes(run)[1])); a > perPass/32 {
		t.Errorf("owned read: %.0f allocations per %.0f tuples, want at most 1 per 32", a, perPass)
	}
}

// TestOwnedTuplesOutliveTheRun: tuples from the owned mode stay intact
// through later reads in either mode, Rewind, and Close of the run and
// of the cache, while a borrowed tuple is the run's scratch.
func TestOwnedTuplesOutliveTheRun(t *testing.T) {
	tr := NewTracker(1 << 20)
	defer tr.Close()
	want := append(roundTripTuples(), supplierTuples(300)...)
	run := writtenRun(t, tr, want)
	strs := tr.NewStringCache()

	if err := run.Rewind(); err != nil {
		t.Fatal(err)
	}
	owned, err := readAll(strs, readModes(run)[1], false)
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Rewind(); err != nil {
		t.Fatal(err)
	}
	first, err := run.Next(strs)
	if err != nil {
		t.Fatal(err)
	}
	second, err := run.Next(strs)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) > 0 && len(second) > 0 && &first[0] != &second[0] {
		t.Error("borrowed reads did not reuse the run's scratch")
	}
	if _, err := readAll(strs, run.Next, false); err != nil {
		t.Fatal(err)
	}
	run.Close()
	strs.Close()
	if len(owned) != len(want) {
		t.Fatalf("read %d tuples, want %d", len(owned), len(want))
	}
	for i, w := range want {
		if !owned[i].Equal(w) {
			t.Fatalf("owned tuple %d = %v after later reads, Rewind and Close; want %v", i, owned[i], w)
		}
	}
}

// TestStringCacheUnderForcedCollisions squeezes every string into two
// cache slots: the cache must compare bytes, not trust the slot.
func TestStringCacheUnderForcedCollisions(t *testing.T) {
	defer hashkey.SetMaskForTesting(0x1)()
	tr := NewTracker(1 << 20)
	defer tr.Close()
	var want []relation.Tuple
	for i := 0; i < 500; i++ {
		want = append(want, relation.Tuple{
			value.String(fmt.Sprintf("k%d", i%37)), value.String(strings.Repeat("x", i%5)), value.Int(int64(i)),
		})
	}
	run := writtenRun(t, tr, want)
	defer run.Close()
	strs := tr.NewStringCache()
	defer strs.Close()
	for _, next := range readModes(run) {
		if err := run.Rewind(); err != nil {
			t.Fatal(err)
		}
		for i, w := range want {
			got, err := next(strs)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(w) {
				t.Fatalf("tuple %d = %v under colliding cache slots, want %v", i, got, w)
			}
		}
	}
}

// TestStringCacheScalesWithBudget: the cache takes a small share of any
// budget, is simply absent when the budget is already full, and gives
// back exactly what it took.
func TestStringCacheScalesWithBudget(t *testing.T) {
	want := supplierTuples(200)
	for _, limit := range []int64{64, 4 << 10, 64 << 10, 1 << 20} {
		for _, full := range []bool{false, true} {
			tr := NewTracker(limit)
			run := writtenRun(t, tr, want)
			if err := run.Rewind(); err != nil {
				t.Fatal(err)
			}
			if full {
				if err := tr.Charge(limit); err != nil {
					t.Fatal(err)
				}
			}
			before := tr.Snapshot().Used
			strs := tr.NewStringCache()
			got, err := readAll(strs, run.Next, true)
			if took := tr.Snapshot().Used - before; took > limit/16 {
				t.Errorf("limit %d: a warm cache holds %d bytes, more than 1/16 of the budget", limit, took)
			}
			if limit == 1<<20 && !full && len(strs.slots) != cacheMaxSlots {
				t.Errorf("limit %d: %d cache slots, want the full %d", limit, len(strs.slots), cacheMaxSlots)
			}
			if err != nil || len(got) != len(want) {
				t.Fatalf("limit %d full %t: read (%d tuples, %v), want %d", limit, full, len(got), err, len(want))
			}
			for i, w := range want {
				if !got[i].Equal(w) {
					t.Fatalf("limit %d full %t: tuple %d = %v, want %v", limit, full, i, got[i], w)
				}
			}
			if st := tr.Snapshot(); st.Peak > limit {
				t.Errorf("limit %d: charged peak %d", limit, st.Peak)
			}
			strs.Close()
			if used := tr.Snapshot().Used; used != before {
				t.Errorf("limit %d full %t: %d bytes charged after the cache closed, want %d", limit, full, used, before)
			}
			run.Close()
			tr.Close()
		}
	}
}

// frameOf frames a payload the way Append does.
func frameOf(payload []byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(payload))), payload...)
}

// TestCorruptFramesErrorCleanly: a corrupt or truncated run is an
// error wrapping ErrIO in both reader modes — the huge-varint cases
// used to reach make and panic.
func TestCorruptFramesErrorCleanly(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	good := relation.Tuple{value.Int(7), value.String("blue")}.AppendKey(binary.AppendUvarint(nil, 2))
	cases := []struct {
		name string
		data []byte
	}{
		{"huge frame length", huge},
		{"frame length past the end of the run", append(binary.AppendUvarint(nil, 1<<20), good...)},
		{"frame length overflowing a varint", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}},
		{"truncated frame length", []byte{0x80}},
		{"truncated frame", frameOf(good)[:len(good)-2]},
		{"empty frame", frameOf(nil)},
		{"huge arity", frameOf(huge)},
		{"arity larger than the payload", frameOf(append(binary.AppendUvarint(nil, 40), good[1:]...))},
		{"arity smaller than the payload", frameOf(append(binary.AppendUvarint(nil, 1), good[1:]...))},
		{"unknown value kind", frameOf([]byte{1, 0x2a})},
		{"truncated int", frameOf([]byte{1, byte(value.KindInt), 0, 0})},
		{"string length past the frame", frameOf(append([]byte{1, byte(value.KindString)}, huge[:8]...))},
	}
	tr := NewTracker(1 << 20)
	defer tr.Close()
	strs := tr.NewStringCache()
	defer strs.Close()
	for _, c := range cases {
		for mode, name := range []string{"borrowed", "owned"} {
			run := rawRun(t, tr, c.data)
			next := readModes(run)[mode]
			if tu, err := next(strs); !errors.Is(err, ErrIO) {
				t.Errorf("%s (%s): got (%v, %v), want an error wrapping ErrIO", c.name, name, tu, err)
			}
			run.Close()
		}
	}
}

// TestBudgetRefusalIsCheapAndTyped: refusals are routine, so one must
// not cost a formatted message until somebody reads it.
func TestBudgetRefusalIsCheapAndTyped(t *testing.T) {
	tr := NewTracker(100)
	if err := tr.Charge(60); err != nil {
		t.Fatal(err)
	}
	err := tr.Charge(50)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("refusal = %v, want ErrBudget", err)
	}
	if got, want := err.Error(), "memory budget exceeded (limit 100 bytes, 60 in use, 50 requested)"; got != want {
		t.Errorf("refusal message = %q, want %q", got, want)
	}
	if a := testing.AllocsPerRun(100, func() { _ = tr.Charge(50) }); a > 1 {
		t.Errorf("a refused Charge makes %.0f allocations, want at most 1", a)
	}
}

// fuzzTuples derives tuples of every value kind from fuzz bytes.
func fuzzTuples(data []byte) []relation.Tuple {
	var out []relation.Tuple
	for len(data) > 0 {
		arity := int(data[0] % 5)
		data = data[1:]
		tu := make(relation.Tuple, 0, arity)
		for i := 0; i < arity && len(data) > 0; i++ {
			kind := data[0] % 5
			data = data[1:]
			var word [8]byte
			copy(word[:], data)
			u := binary.LittleEndian.Uint64(word[:])
			switch kind {
			case 0:
				tu = append(tu, value.Null)
			case 1:
				tu = append(tu, value.Bool(u&1 == 1))
			case 2:
				tu = append(tu, value.Int(int64(u)))
			case 3:
				tu = append(tu, value.Float(math.Float64frombits(u)))
			default:
				n := min(int(word[0]%24), len(data))
				tu = append(tu, value.String(string(data[:n])))
				data = data[n:]
				continue
			}
			data = data[min(8, len(data)):]
		}
		out = append(out, tu)
	}
	return out
}

// FuzzSpillCodec: tuples derived from the input round-trip through
// both reader modes, and the input itself, read as a run file, either
// decodes or fails with ErrIO — it never panics.
func FuzzSpillCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add(frameOf([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}))
	f.Add(frameOf(relation.Tuple{value.Int(7), value.String("blue"), value.Null}.AppendKey([]byte{3})))
	f.Add([]byte("\x03\x04\x05hello\x02\x01\x02\x03\x04\x05\x06\x07\x08\x03\x00\x00\x00\x00\x00\x00\xf8\x7f"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := NewTracker(64 << 10)
		defer tr.Close()
		strs := tr.NewStringCache()
		defer strs.Close()

		want := fuzzTuples(data)
		run := writtenRun(t, tr, want)
		defer run.Close()
		for _, next := range readModes(run) {
			if err := run.Rewind(); err != nil {
				t.Fatal(err)
			}
			for i, w := range want {
				got, err := next(strs)
				if err != nil {
					t.Fatalf("tuple %d: %v", i, err)
				}
				if !got.Equal(w) {
					t.Fatalf("tuple %d = %v, want %v", i, got, w)
				}
			}
			if _, err := next(strs); err != io.EOF {
				t.Fatalf("after the last tuple: %v, want io.EOF", err)
			}
		}

		for mode := 0; mode < 2; mode++ {
			raw := rawRun(t, tr, data)
			next := readModes(raw)[mode]
			if _, err := readAll(strs, next, false); err != nil && !errors.Is(err, ErrIO) {
				t.Fatalf("arbitrary bytes as a run: %v, want a decode or an error wrapping ErrIO", err)
			}
			raw.Close()
		}
	})
}

// BenchmarkRunRoundTrip writes a run and reads it back in each
// ownership mode; with ReportAllocs it is the per-tuple allocation
// gate in benchmark form.
func BenchmarkRunRoundTrip(b *testing.B) {
	tuples := supplierTuples(4096)
	tr := NewTracker(1 << 20)
	defer tr.Close()
	strs := tr.NewStringCache()
	defer strs.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := writtenRun(b, tr, tuples)
		for _, next := range readModes(run) {
			if err := run.Rewind(); err != nil {
				b.Fatal(err)
			}
			for {
				if _, err := next(strs); err == io.EOF {
					break
				} else if err != nil {
					b.Fatal(err)
				}
			}
		}
		run.Close()
	}
}
