package figures

import (
	"strings"
	"testing"
)

// contains asserts the rendered figure includes every needle.
func contains(t *testing.T, rendered string, needles ...string) {
	t.Helper()
	for _, n := range needles {
		if !strings.Contains(rendered, n) {
			t.Errorf("rendered figure missing %q:\n%s", n, rendered)
		}
	}
}

func TestAllFiguresRender(t *testing.T) {
	figs := All()
	if len(figs) != 11 {
		t.Fatalf("figure count = %d, want 11", len(figs))
	}
	for _, f := range figs {
		out := f.Render()
		if len(out) == 0 {
			t.Errorf("%s rendered empty", f.ID)
		}
	}
}

func TestByID(t *testing.T) {
	if f, ok := ByID("figure-7"); !ok || f.ID != "figure-7" {
		t.Error("ByID(figure-7)")
	}
	if _, ok := ByID("figure-99"); ok {
		t.Error("ByID should miss unknown ids")
	}
}

func TestFigure1MatchesPaper(t *testing.T) {
	// Figure 1(c): quotient {2, 3}.
	out := Figure1()
	contains(t, out, "(c) r3 (quotient)")
	quotientBlock := out[strings.Index(out, "(b) r2"):]
	contains(t, quotientBlock, "a\n2\n3\n(c) r3 (quotient)")
}

func TestFigure2MatchesPaper(t *testing.T) {
	// Figure 2(c): quotient {(2,1), (2,2), (3,2)}.
	out := Figure2()
	contains(t, out, "a c\n2 1\n2 2\n3 2\n(c) r3 (quotient)")
}

func TestFigure3MatchesPaper(t *testing.T) {
	out := Figure3()
	// r1 of Figure 3(a), Figure 1's dividend nested on a.
	contains(t, out, "a  b1\n1  {1, 4}\n2  {1, 2, 3, 4}\n3  {1, 3, 4}\n(a) r1")
	// r2 of Figure 3(b), Figure 2's divisor nested on c.
	contains(t, out, "b2  c\n{1, 2, 4}  1\n{1, 3}  2\n(b) r2")
	// The three join rows of Figure 3(c).
	contains(t, out,
		"2  {1, 2, 3, 4}  {1, 2, 4}  1",
		"2  {1, 2, 3, 4}  {1, 3}  2",
		"3  {1, 3, 4}  {1, 3}  2",
	)
}

func TestFigure4MatchesPaper(t *testing.T) {
	out := Figure4()
	// (e) r1 ÷ r2' = {2, 3, 4}; (g) r3 = {2, 3}.
	contains(t, out, "a\n2\n3\n4\n(e) r1 ÷ r2'")
	contains(t, out, "a\n2\n3\n(g) r3")
	// (f) has 9 tuples.
	fBlock := out[strings.Index(out, "(e) r1 ÷ r2'"):strings.Index(out, "(g) r3")]
	if strings.Count(fBlock, "\n") < 10 {
		t.Errorf("(f) block looks too small:\n%s", fBlock)
	}
}

func TestFigure5ShowsDiscrepancy(t *testing.T) {
	out := Figure5()
	contains(t, out, "a\n1\n(r1' ∪ r1'') ÷ r2  [correct]")
	contains(t, out, "a\n(r1' ÷ r2) ∪ (r1'' ÷ r2)  [wrong without c1]")
}

func TestFigure6BothSidesEmpty(t *testing.T) {
	out := Figure6()
	// (e) and (i) are empty; (f) and (h) are {1,2,3,4}.
	contains(t, out, "a\n(e) σ(b<3)(r1) ÷ r2")
	contains(t, out, "a\n1\n2\n3\n4\n(f)")
	contains(t, out, "a\n1\n2\n3\n4\n(h)")
	contains(t, out, "a\n(i) (f) − (h)")
}

func TestFigure7MatchesPaper(t *testing.T) {
	out := Figure7()
	contains(t, out, "a2\n1\n3\n(e) r1** ÷ r2")
	contains(t, out, "a1 a2\n1  1\n1  3\n2  1\n2  3\n(f) r3")
}

func TestFigure8MatchesPaper(t *testing.T) {
	out := Figure8()
	contains(t, out, "b1\n1\n3\n(e) πb1(r2)")
	contains(t, out, "a\n1\n3\n(g) r3")
}

func TestFigure9MatchesPaper(t *testing.T) {
	out := Figure9()
	contains(t, out, "b1\n1\n3\n(e)")
	contains(t, out, "a\n1\n3\n(f) r3")
	// (d) has the 9 join tuples of the paper.
	dBlock := out[strings.Index(out, "(c) r2"):strings.Index(out, "(e)")]
	if strings.Count(dBlock, "\n") < 10 {
		t.Errorf("(d) block too small:\n%s", dBlock)
	}
}

func TestFigure10MatchesPaper(t *testing.T) {
	out := Figure10()
	contains(t, out, "a b\n1 6\n2 4\n3 8\n(b) r1")
	contains(t, out, "a b\n2 4\n(d) r1 ⋉ r2")
	contains(t, out, "a\n2\n(e) πA(r1 ⋉ r2)")
}

func TestFigure11MatchesPaper(t *testing.T) {
	out := Figure11()
	contains(t, out, "(b) r1 = bγsum(x)→a(r0)")
	contains(t, out, "a\n6\n(e) πA(r1 ⋉ r2)")
	// r1 of Figure 11(b): (6,1), (1,2), (6,3), (3,4).
	contains(t, out, "1 2", "3 4", "6 1", "6 3")
}
