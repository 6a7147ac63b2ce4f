package spill

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"sync"
	"testing"

	"divlaws/internal/relation"
	"divlaws/internal/value"
)

func TestTrackerChargeRelease(t *testing.T) {
	tr := NewTracker(100)
	if err := tr.Charge(60); err != nil {
		t.Fatalf("charge 60: %v", err)
	}
	if err := tr.Charge(50); !errors.Is(err, ErrBudget) {
		t.Fatalf("charge past limit: got %v, want ErrBudget", err)
	}
	if err := tr.Charge(40); err != nil {
		t.Fatalf("charge to limit: %v", err)
	}
	tr.Release(60)
	if err := tr.Charge(55); err != nil {
		t.Fatalf("charge after release: %v", err)
	}
	s := tr.Snapshot()
	if s.Used != 95 || s.Peak != 100 || s.Limit != 100 {
		t.Fatalf("snapshot = %+v, want used 95 peak 100 limit 100", s)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestNilTrackerIsUnlimited(t *testing.T) {
	var tr *Tracker
	if err := tr.Charge(math.MaxInt64); err != nil {
		t.Fatalf("nil charge: %v", err)
	}
	tr.Release(1)
	tr.AddPartitions(1)
	if s := tr.Snapshot(); s != (Stats{}) {
		t.Fatalf("nil snapshot = %+v", s)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("nil close: %v", err)
	}
	if NewTracker(0) != nil || NewTracker(-1) != nil {
		t.Fatal("non-positive limit should build the nil tracker")
	}
}

// roundTripTuples exercises every value kind plus tricky payloads
// (empty string, NaN, negative ints), a frame that straddles the first
// block boundary and one longer than a block.
func roundTripTuples() []relation.Tuple {
	return []relation.Tuple{
		{value.Int(1), value.String("blue"), value.Bool(true)},
		{value.Int(-42), value.String(""), value.Bool(false)},
		{value.Null, value.Float(3.5), value.Float(math.NaN())},
		{},
		{value.String("a long-ish string payload to cross buffer boundaries")},
		{value.String(strings.Repeat("h", blockSize/2))},
		{value.Int(7), value.String(strings.Repeat("s", blockSize/2))},
		{value.String(strings.Repeat("L", 2*blockSize+5)), value.Int(-1)},
		{value.Bool(true)},
	}
}

func TestRunRoundTrip(t *testing.T) {
	tr := NewTracker(1 << 20)
	defer tr.Close()
	run, err := tr.NewRun()
	if err != nil {
		t.Fatalf("new run: %v", err)
	}
	defer run.Close()
	want := roundTripTuples()
	for _, tu := range want {
		if err := run.Append(tu); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if run.Len() != int64(len(want)) {
		t.Fatalf("run len = %d, want %d", run.Len(), len(want))
	}
	// Two full read passes: Rewind must be repeatable.
	strs := tr.NewStringCache()
	defer strs.Close()
	for pass, next := range []func(*StringCache) (relation.Tuple, error){run.Next, run.Next} {
		if err := run.Rewind(); err != nil {
			t.Fatalf("rewind pass %d: %v", pass, err)
		}
		for i, w := range want {
			got, err := next(strs)
			if err != nil {
				t.Fatalf("pass %d next %d: %v", pass, i, err)
			}
			if !got.Equal(w) {
				t.Fatalf("pass %d tuple %d = %v, want %v", pass, i, got, w)
			}
		}
		if _, err := next(strs); err != io.EOF {
			t.Fatalf("pass %d: trailing Next = %v, want io.EOF", pass, err)
		}
	}
	if s := tr.Snapshot(); s.Runs != 1 || s.Spilled == 0 {
		t.Fatalf("snapshot = %+v, want 1 run and nonzero spilled bytes", s)
	}
}

// spillTempDir points os.TempDir, where the tracker makes its file, at
// a fresh directory for the test.
func spillTempDir(t *testing.T) string {
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	return dir
}

// assertNoEntries fails the test if dir holds anything: the spill file
// is unlinked as soon as it is made.
func assertNoEntries(t *testing.T, dir, when string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("%s: %d entries in the temp dir, want none (first %s)", when, len(ents), ents[0].Name())
	}
}

// TestCloseRemovesSpillDir: a spilling tracker leaves no name in the
// temp dir, while its runs are written and read and after teardown.
func TestCloseRemovesSpillDir(t *testing.T) {
	dir := spillTempDir(t)
	tr := NewTracker(1 << 20)
	run := writtenRun(t, tr, supplierTuples(5000))
	if err := run.Rewind(); err != nil {
		t.Fatal(err)
	}
	strs := tr.NewStringCache()
	defer strs.Close()
	if _, err := run.Next(strs); err != nil {
		t.Fatal(err)
	}
	if tr.f == nil || len(run.blocks) < 2 {
		t.Fatalf("run holds %d blocks, want the file made and several blocks", len(run.blocks))
	}
	assertNoEntries(t, dir, "mid-spill")
	if tr.LiveRuns() != 1 {
		t.Fatalf("live runs = %d, want 1", tr.LiveRuns())
	}
	if err := run.Close(); err != nil {
		t.Fatalf("run close: %v", err)
	}
	if tr.LiveRuns() != 0 {
		t.Fatalf("live runs after close = %d, want 0", tr.LiveRuns())
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("tracker close: %v", err)
	}
	assertNoEntries(t, dir, "after Close")
	if err := tr.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestOpenRunsShareOneDescriptor: a thousand runs holding data at once
// cost the process one descriptor, and Tracker.Close gives it back.
func TestOpenRunsShareOneDescriptor(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot count descriptors: %v", err)
		}
		return len(ents)
	}
	base := fds()
	tr := NewTracker(1 << 20)
	runs := make([]*Run, 1000)
	for i := range runs {
		runs[i] = writtenRun(t, tr, []relation.Tuple{{value.Int(int64(i))}})
		if err := runs[i].Rewind(); err != nil {
			t.Fatal(err)
		}
	}
	if n := fds() - base; n > 1 {
		t.Errorf("%d runs hold %d descriptors, want at most 1", len(runs), n)
	}
	for i, run := range runs {
		if got, err := run.Next(nil); err != nil || !got.Equal(relation.Tuple{value.Int(int64(i))}) {
			t.Fatalf("run %d read (%v, %v)", i, got, err)
		}
		run.Close()
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if n := fds(); n != base {
		t.Errorf("%d descriptors after Close, want the %d before", n, base)
	}
}

// TestClosedRunsBlocksAreReused: writing, closing and rewriting the
// same volume leaves the file one volume long.
func TestClosedRunsBlocksAreReused(t *testing.T) {
	tr := NewTracker(1 << 20)
	defer tr.Close()
	strs := tr.NewStringCache()
	defer strs.Close()
	want := supplierTuples(20000)
	var blocks int64
	for i := 0; i < 5; i++ {
		run := writtenRun(t, tr, want)
		if err := run.Rewind(); err != nil {
			t.Fatal(err)
		}
		got, err := readAll(strs, run.Next, true)
		if err != nil || len(got) != len(want) || !got[len(got)-1].Equal(want[len(want)-1]) {
			t.Fatalf("round %d: read %d tuples (%v), want %d", i, len(got), err, len(want))
		}
		blocks = max(blocks, int64(len(run.blocks)))
		run.Close()
	}
	st, err := tr.f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if blocks < 2 || st.Size() > blocks*blockSize {
		t.Errorf("five rounds of %d blocks left a %d-byte file, want at most %d", blocks, st.Size(), blocks*blockSize)
	}
}

// TestConcurrentRunsShareTheFile: goroutines interleave the blocks of
// their own runs in one file (run it under -race), and every run
// reads back what it was given.
func TestConcurrentRunsShareTheFile(t *testing.T) {
	tr := NewTracker(1 << 20)
	defer tr.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			strs := tr.NewStringCache()
			defer strs.Close()
			for round := 0; round < 3; round++ {
				var runs [2]*Run
				var want [2][]relation.Tuple
				for i := range runs {
					var err error
					if runs[i], err = tr.NewRun(); err != nil {
						t.Error(err)
						return
					}
					defer runs[i].Close() // on an early return; Close is idempotent
				}
				for j := 0; j < 3000; j++ {
					tu := relation.Tuple{value.Int(int64(g)), value.Int(int64(j)), value.String(fmt.Sprintf("r%d", round))}
					want[j%2] = append(want[j%2], tu)
					if err := runs[j%2].Append(tu); err != nil {
						t.Error(err)
						return
					}
				}
				for i, run := range runs {
					if err := run.Rewind(); err != nil {
						t.Error(err)
						return
					}
					got, err := readAll(strs, run.Next, true)
					if err != nil || len(got) != len(want[i]) {
						t.Errorf("goroutine %d run %d: read %d tuples (%v), want %d", g, i, len(got), err, len(want[i]))
						return
					}
					for k := range got {
						if !got[k].Equal(want[i][k]) {
							t.Errorf("goroutine %d run %d tuple %d = %v, want %v", g, i, k, got[k], want[i][k])
							return
						}
					}
					run.Close()
				}
			}
		}()
	}
	wg.Wait()
	if tr.LiveRuns() != 0 {
		t.Errorf("%d runs live after every goroutine closed its own", tr.LiveRuns())
	}
}

func TestFaultInjection(t *testing.T) {
	tr := NewTracker(1 << 20)
	defer tr.Close()

	tr.FailWriteAfter(2)
	run, err := tr.NewRun()
	if err != nil {
		t.Fatalf("new run: %v", err)
	}
	defer run.Close()
	tu := relation.Tuple{value.Int(7)}
	if err := run.Append(tu); err != nil {
		t.Fatalf("append 1: %v", err)
	}
	if err := run.Append(tu); !errors.Is(err, ErrIO) {
		t.Fatalf("append 2: got %v, want ErrIO", err)
	}
	if err := run.Append(tu); err != nil {
		t.Fatalf("append 3 (injection disarmed): %v", err)
	}

	tr.FailReadAfter(1)
	if err := run.Rewind(); err != nil {
		t.Fatalf("rewind: %v", err)
	}
	strs := tr.NewStringCache()
	defer strs.Close()
	if _, err := run.Next(strs); !errors.Is(err, ErrIO) {
		t.Fatalf("read: got %v, want ErrIO", err)
	}
	if _, err := run.Next(strs); err != nil {
		t.Fatalf("read after disarm: %v", err)
	}
}

func TestAppendAfterCloseAndRewindErrors(t *testing.T) {
	tr := NewTracker(1 << 20)
	defer tr.Close()
	run, err := tr.NewRun()
	if err != nil {
		t.Fatalf("new run: %v", err)
	}
	if err := run.Rewind(); err != nil {
		t.Fatalf("rewind empty run: %v", err)
	}
	if err := run.Append(relation.Tuple{value.Int(1)}); !errors.Is(err, ErrIO) {
		t.Fatalf("append after rewind: got %v, want ErrIO", err)
	}
	if err := run.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := run.Next(tr.NewStringCache()); !errors.Is(err, ErrIO) {
		t.Fatalf("next after close: got %v, want ErrIO", err)
	}
	if err := run.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestNewRunAfterCloseFails(t *testing.T) {
	tr := NewTracker(1 << 20)
	if err := tr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := tr.NewRun(); !errors.Is(err, ErrIO) {
		t.Fatalf("NewRun after Close: got %v, want ErrIO", err)
	}
}

// TestEmptyRunMakesNoFile: a run nothing is appended to reads back
// empty without holding a block, so the empty partitions of a
// grace-hash split cost no disk; a tracker whose runs stay empty never
// makes its file.
func TestEmptyRunMakesNoFile(t *testing.T) {
	dir := spillTempDir(t)
	tr := NewTracker(1 << 20)
	defer tr.Close()
	run, err := tr.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Rewind(); err != nil {
		t.Fatalf("rewind: %v", err)
	}
	if _, err := run.Next(nil); err != io.EOF {
		t.Fatalf("Next on an empty run = %v, want io.EOF", err)
	}
	if err := run.Append(relation.Tuple{value.Int(1)}); !errors.Is(err, ErrIO) {
		t.Fatalf("Append after Rewind = %v, want ErrIO", err)
	}
	assertNoEntries(t, dir, "mid-query")
	if n := tr.Snapshot().Runs; n != 0 || len(run.blocks) != 0 || tr.f != nil {
		t.Errorf("%d runs counted, %d blocks held and file %v made for an empty run, want none", n, len(run.blocks), tr.f)
	}
	if err := run.Close(); err != nil || tr.LiveRuns() != 0 {
		t.Errorf("Close = %v with %d live runs, want nil and 0", err, tr.LiveRuns())
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	assertNoEntries(t, dir, "after Close")
}
