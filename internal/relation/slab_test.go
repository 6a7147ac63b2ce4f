package relation

import (
	"testing"

	"divlaws/internal/value"
)

// TestSlabRewindReusesLiveChunk pins the lifetime rule's one
// exception: after Rewind the live chunk is carved again from offset
// 0, overwriting the tuples it served, while Close only drops the
// chunk and leaves what it served intact.
func TestSlabRewindReusesLiveChunk(t *testing.T) {
	var s Slab
	a := s.Concat(Tuple{value.Int(1)}, Tuple{value.Int(2)})
	s.Rewind()
	b := s.Concat(Tuple{value.Int(3)}, Tuple{value.Int(4)})
	if &a[0] != &b[0] {
		t.Fatal("Rewind did not reuse the live chunk from offset 0")
	}
	if a[0].AsInt() != 3 {
		t.Fatalf("the rewound tuple reads %v, want the overwrite 3, 4", a)
	}
	s.Close()
	c := s.Concat(Tuple{value.Int(5)}, nil)
	if &c[0] == &b[0] || b[0].AsInt() != 3 || b[1].AsInt() != 4 {
		t.Fatalf("Close overwrote a served tuple: %v", b)
	}
}
