package exec

import (
	"context"
	"testing"

	"divlaws/internal/pred"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/value"
)

// TestIteratorCloseSafety audits every physical operator for the
// Close protocol: Close before Open must be a harmless no-op (a
// parent that fails partway through Open closes all its children,
// opened or not), and Close must be idempotent. Regression test for
// the ThetaJoinIter nil-pointer panic on Close-before-Open.
func TestIteratorCloseSafety(t *testing.T) {
	ab := relation.New(schema.New("a", "b"))
	ab2 := relation.New(schema.New("a", "b"))
	bOnly := relation.New(schema.New("b"))
	bc := relation.New(schema.New("b", "c"))
	cd := relation.New(schema.New("c", "d"))
	for i := int64(0); i < 6; i++ {
		ab.Insert(relation.Tuple{value.Int(i % 3), value.Int(i)})
		ab2.Insert(relation.Tuple{value.Int(i % 2), value.Int(i)})
		cd.Insert(relation.Tuple{value.Int(i), value.Int(i + 1)})
	}
	bOnly.Insert(relation.Tuple{value.Int(1)})
	bc.Insert(relation.Tuple{value.Int(1), value.Int(2)})

	scan := func(r *relation.Relation) BatchIterator { return &ScanIter{Label: "scan", Rel: r} }

	cases := []struct {
		name string
		mk   func() BatchIterator
	}{
		{"ScanIter", func() BatchIterator { return scan(ab) }},
		{"FilterIter", func() BatchIterator {
			return &FilterBatch{Label: "f", Input: scan(ab), Pred: pred.Literal(true)}
		}},
		{"ProjectIter", func() BatchIterator {
			return &ProjectBatch{Label: "p", Input: scan(ab), Attrs: []string{"a"}}
		}},
		{"UnionIter", func() BatchIterator {
			return &UnionIter{Label: "u", Left: scan(ab), Right: scan(ab2)}
		}},
		{"HashSetOpIter", func() BatchIterator {
			return &SemiJoinIter{Label: "s", Left: scan(ab), Right: scan(ab2), Keep: true, SetOp: "intersection"}
		}},
		{"ProductIter", func() BatchIterator {
			return &ProductIter{Label: "x", Left: scan(ab), Right: scan(cd)}
		}},
		{"HashJoinIter", func() BatchIterator {
			return &HashJoinIter{Label: "j", Left: scan(ab), Right: scan(bc)}
		}},
		{"SemiJoinIter", func() BatchIterator {
			return &SemiJoinIter{Label: "sj", Left: scan(ab), Right: scan(bc), Keep: true}
		}},
		{"ThetaJoinIter", func() BatchIterator {
			return &ThetaJoinIter{Label: "tj", Left: scan(ab), Right: scan(cd), Pred: pred.Literal(true)}
		}},
		{"HashDivideIter", func() BatchIterator {
			return &DivideIter{Label: "hd", Dividend: scan(ab), Divisor: scan(bOnly)}
		}},
		{"MergeGroupDivideIter", func() BatchIterator {
			return &MergeGroupDivideIter{Label: "md", Dividend: scan(ab), Divisor: scan(bOnly)}
		}},
		// The great-divide variants (C = {c}) of the two operators.
		{"GreatDivideIter", func() BatchIterator {
			return &DivideIter{Label: "gd", Dividend: scan(ab), Divisor: scan(bc)}
		}},
		{"ParallelDivideIter", func() BatchIterator {
			return &DivideIter{Label: "pd", Dividend: scan(ab), Divisor: scan(bOnly), Workers: 2}
		}},
		{"ParallelGreatDivideIter", func() BatchIterator {
			return &DivideIter{Label: "pgd", Dividend: scan(ab), Divisor: scan(bc), Workers: 2}
		}},
		{"GroupIter", func() BatchIterator {
			return &GroupIter{Label: "g", Input: scan(ab), By: []string{"a"}}
		}},
		{"LimitIter", func() BatchIterator {
			return &LimitBatch{Label: "l", Input: scan(ab), N: 2}
		}},
		{"LimitIterZero", func() BatchIterator {
			return &LimitBatch{Label: "l0", Input: scan(ab), N: 0}
		}},
		{"SortIter", func() BatchIterator {
			return &SortIter{Label: "so", Input: scan(ab)}
		}},
		{"RenameIter", func() BatchIterator {
			return &RenameBatch{Input: scan(ab), From: "a", To: "z"}
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Close before Open must neither panic nor error.
			it := tc.mk()
			if err := it.Close(); err != nil {
				t.Errorf("Close before Open: %v", err)
			}
			// And must stay idempotent even then.
			if err := it.Close(); err != nil {
				t.Errorf("second Close before Open: %v", err)
			}

			// Full lifecycle, then double Close.
			it = tc.mk()
			if err := it.Open(context.Background()); err != nil {
				t.Fatalf("Open: %v", err)
			}
			for {
				b, err := it.NextBatch()
				if err != nil {
					t.Fatalf("NextBatch: %v", err)
				}
				if b == nil {
					break
				}
			}
			if err := it.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
			if err := it.Close(); err != nil {
				t.Errorf("Close twice: %v", err)
			}

			// NextBatch after Close must not panic; it may report an
			// error or end-of-stream, but never a batch.
			if b, _ := it.NextBatch(); b != nil {
				t.Errorf("NextBatch after Close produced a batch: %v", b.Tuples())
			}
		})
	}
}
