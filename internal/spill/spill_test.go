package spill

import (
	"errors"
	"io"
	"math"
	"os"
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
// (empty string, NaN, negative ints).
func roundTripTuples() []relation.Tuple {
	return []relation.Tuple{
		{value.Int(1), value.String("blue"), value.Bool(true)},
		{value.Int(-42), value.String(""), value.Bool(false)},
		{value.Null, value.Float(3.5), value.Float(math.NaN())},
		{},
		{value.String("a long-ish string payload to cross buffer boundaries")},
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

func TestCloseRemovesSpillDir(t *testing.T) {
	tr := NewTracker(1 << 20)
	run, err := tr.NewRun()
	if err != nil {
		t.Fatalf("new run: %v", err)
	}
	dir := tr.Dir()
	if dir == "" {
		t.Fatal("spill dir not created")
	}
	if tr.LiveRuns() != 1 {
		t.Fatalf("live runs = %d, want 1", tr.LiveRuns())
	}
	if err := run.Close(); err != nil {
		t.Fatalf("run close: %v", err)
	}
	if tr.LiveRuns() != 0 {
		t.Fatalf("live runs after close = %d, want 0", tr.LiveRuns())
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read spill dir: %v", err)
	}
	if len(ents) != 0 {
		t.Fatalf("spill dir has %d entries after run close, want 0", len(ents))
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("tracker close: %v", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("spill dir still exists after Close (stat err %v)", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("second close: %v", err)
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
