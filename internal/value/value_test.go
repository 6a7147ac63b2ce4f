package value

import (
	"divlaws/internal/hashkey"

	"bytes"
	"encoding/json"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:   "null",
		KindBool:   "bool",
		KindInt:    "int",
		KindFloat:  "float",
		KindString: "string",
		Kind(99):   "kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if !Null.IsNull() {
		t.Fatal("Null should be null")
	}
	if got := Bool(true); !got.AsBool() || got.Kind() != KindBool {
		t.Errorf("Bool(true) = %v", got)
	}
	if got := Bool(false); got.AsBool() {
		t.Errorf("Bool(false).AsBool() = true")
	}
	if got := Int(-42); got.AsInt() != -42 {
		t.Errorf("Int(-42).AsInt() = %d", got.AsInt())
	}
	if got := Float(2.5); got.AsFloat() != 2.5 {
		t.Errorf("Float(2.5).AsFloat() = %g", got.AsFloat())
	}
	if got := String("abc"); got.AsString() != "abc" {
		t.Errorf("String(abc).AsString() = %q", got.AsString())
	}
	if !Int(7).IsNumeric() || !Float(1).IsNumeric() || String("x").IsNumeric() {
		t.Error("IsNumeric misclassifies")
	}
	if Int(7).AsFloat() != 7.0 {
		t.Error("AsFloat should widen ints")
	}
}

func TestAccessorPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"AsBool on int", func() { Int(1).AsBool() }},
		{"AsInt on string", func() { String("x").AsInt() }},
		{"AsFloat on string", func() { String("x").AsFloat() }},
		{"AsString on null", func() { Null.AsString() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			tc.fn()
		})
	}
}

func TestCompareWithinKinds(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Float(1.5), Float(2.5), -1},
		{Float(2.5), Float(2.5), 0},
		{String("a"), String("b"), -1},
		{String("b"), String("b"), 0},
		{String("c"), String("b"), 1},
		{Bool(false), Bool(true), -1},
		{Bool(true), Bool(true), 0},
		{Null, Null, 0},
		{Int(2), Float(2.0), 0},  // cross-numeric equality
		{Int(2), Float(2.5), -1}, // cross-numeric order
		{Float(3.5), Int(3), 1},
	}
	for _, tc := range cases {
		if got := Compare(tc.a, tc.b); got != tc.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCompareAcrossKinds(t *testing.T) {
	// Total order across kinds: null < bool < numeric < string.
	ordered := []Value{Null, Bool(false), Bool(true), Int(-5), Float(0.5), Int(7), String(""), String("z")}
	for i := range ordered {
		for j := range ordered {
			got := Compare(ordered[i], ordered[j])
			switch {
			case i < j && got >= 0:
				t.Errorf("Compare(%v, %v) = %d, want < 0", ordered[i], ordered[j], got)
			case i > j && got <= 0:
				t.Errorf("Compare(%v, %v) = %d, want > 0", ordered[i], ordered[j], got)
			case i == j && got != 0:
				t.Errorf("Compare(%v, %v) = %d, want 0", ordered[i], ordered[j], got)
			}
		}
	}
}

func TestEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{Int(1), Int(1), true},
		{Int(1), Int(2), false},
		{Int(1), Float(1), false}, // Equal is kind-strict, unlike Compare
		{String("a"), String("a"), true},
		{Null, Null, true},
		{Null, Int(0), false},
		{Bool(true), Bool(true), true},
		{Bool(true), Bool(false), false},
		{Float(math.NaN()), Float(math.NaN()), true},
	}
	for _, tc := range cases {
		if got := tc.a.Equal(tc.b); got != tc.want {
			t.Errorf("%v.Equal(%v) = %t, want %t", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestAppendKeyInjective(t *testing.T) {
	vals := []Value{
		Null, Bool(false), Bool(true),
		Int(0), Int(1), Int(-1), Int(256),
		Float(0), Float(1), Float(-1), Float(math.NaN()),
		String(""), String("a"), String("ab"), String("b"),
	}
	for i, a := range vals {
		for j, b := range vals {
			ka, kb := a.AppendKey(nil), b.AppendKey(nil)
			same := bytes.Equal(ka, kb)
			if same != a.Equal(b) {
				t.Errorf("key equality mismatch: vals[%d]=%v vals[%d]=%v key-equal=%t Equal=%t",
					i, a, j, b, same, a.Equal(b))
			}
		}
	}
}

func TestAppendKeyPrefixFree(t *testing.T) {
	// Keys of strings must not collide when concatenated in tuples:
	// ("a","bc") vs ("ab","c").
	k1 := String("a").AppendKey(String("bc").AppendKey(nil))
	k2 := String("ab").AppendKey(String("c").AppendKey(nil))
	// Note arguments: AppendKey appends to dst, so build in order.
	k1 = append(String("a").AppendKey(nil), String("bc").AppendKey(nil)...)
	k2 = append(String("ab").AppendKey(nil), String("c").AppendKey(nil)...)
	if bytes.Equal(k1, k2) {
		t.Error("tuple keys collide for (a,bc) vs (ab,c)")
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Int(42), "42"},
		{Int(-7), "-7"},
		{Float(2.5), "2.5"},
		{String("blue"), "blue"},
	}
	for _, tc := range cases {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("%#v.String() = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestGoString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "value.Null"},
		{Bool(true), "value.Bool(true)"},
		{Int(3), "value.Int(3)"},
		{Float(1.5), "value.Float(1.5)"},
		{String("x"), `value.String("x")`},
	}
	for _, tc := range cases {
		if got := tc.v.GoString(); got != tc.want {
			t.Errorf("GoString = %q, want %q", got, tc.want)
		}
	}
}

func TestAdd(t *testing.T) {
	if got := Add(Int(2), Int(3)); !got.Equal(Int(5)) {
		t.Errorf("Add(2,3) = %v", got)
	}
	if got := Add(Int(2), Float(0.5)); !got.Equal(Float(2.5)) {
		t.Errorf("Add(2,0.5) = %v", got)
	}
	if got := Add(Float(1), Float(1)); !got.Equal(Float(2)) {
		t.Errorf("Add(1.0,1.0) = %v", got)
	}
}

func TestMinMaxLess(t *testing.T) {
	if !Less(Int(1), Int(2)) || Less(Int(2), Int(1)) || Less(Int(2), Int(2)) {
		t.Error("Less wrong")
	}
	if got := Min(Int(3), Int(1)); !got.Equal(Int(1)) {
		t.Errorf("Min = %v", got)
	}
	if got := Max(Int(3), Int(1)); !got.Equal(Int(3)) {
		t.Errorf("Max = %v", got)
	}
	// Stability: Min/Max return the first argument on ties.
	a, b := Int(2), Float(2)
	if got := Min(a, b); !got.Equal(a) {
		t.Errorf("Min tie should keep first arg, got %v", got)
	}
	if got := Max(a, b); !got.Equal(a) {
		t.Errorf("Max tie should keep first arg, got %v", got)
	}
}

func TestCompareTotalOrderProperty(t *testing.T) {
	// Compare must be antisymmetric and consistent with sorting.
	f := func(xs []int64) bool {
		vals := make([]Value, len(xs))
		for i, x := range xs {
			// Mix kinds deterministically from the payload.
			switch x % 3 {
			case 0:
				vals[i] = Int(x)
			case 1, -1:
				vals[i] = Float(float64(x) / 2)
			default:
				vals[i] = String(Int(x).String())
			}
		}
		sort.Slice(vals, func(i, j int) bool { return Less(vals[i], vals[j]) })
		for i := 1; i < len(vals); i++ {
			if Compare(vals[i-1], vals[i]) > 0 {
				return false
			}
		}
		for i := range vals {
			for j := range vals {
				if Compare(vals[i], vals[j]) != -Compare(vals[j], vals[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHashEncodedKeyMatchesHashKey(t *testing.T) {
	vals := []Value{
		Null, Bool(true), Bool(false), Int(0), Int(-7), Int(1 << 40),
		Float(0), Float(math.Copysign(0, -1)), Float(-2.5), Float(math.NaN()), Float(math.Inf(1)),
		String(""), String("ab"), String("a longer string with spaces"),
	}
	for _, v := range vals {
		want := v.HashKey(hashkey.New())
		got := HashEncodedKey(hashkey.New(), string(v.AppendKey(nil)))
		if got != want {
			t.Errorf("HashEncodedKey(%v) = %#x, want %#x", v, got, want)
		}
	}
	// Whole-tuple concatenations must fold identically too, including
	// with a non-initial running state.
	for i, a := range vals {
		b := vals[(i*7+3)%len(vals)]
		key := string(b.AppendKey(a.AppendKey(nil)))
		want := b.HashKey(a.HashKey(hashkey.AddByte(hashkey.New(), 42)))
		if got := HashEncodedKey(hashkey.AddByte(hashkey.New(), 42), key); got != want {
			t.Errorf("HashEncodedKey(%v,%v) = %#x, want %#x", a, b, got, want)
		}
	}
	// Truncated encodings must not panic and must stay deterministic.
	full := string(String("abcdef").AppendKey(Int(5).AppendKey(nil)))
	for n := 0; n <= len(full); n++ {
		if HashEncodedKey(hashkey.New(), full[:n]) != HashEncodedKey(hashkey.New(), full[:n]) {
			t.Errorf("truncated key of length %d hashes nondeterministically", n)
		}
	}
}

// TestEqualFloatsShareKeyAndHash: floats that Equal equates — the two
// zeros, and NaNs whatever their payload — have one key and one hash,
// so a hash set cannot keep two of them apart.
func TestEqualFloatsShareKeyAndHash(t *testing.T) {
	pairs := [][2]float64{
		{0, math.Copysign(0, -1)},
		{math.NaN(), math.Float64frombits(0x7ff8000000000abc)},
		{math.NaN(), math.Float64frombits(0xfff0000000000001)},
	}
	for _, p := range pairs {
		a, b := Float(p[0]), Float(p[1])
		if !a.Equal(b) {
			t.Fatalf("%v.Equal(%v) = false", a, b)
		}
		if ka, kb := a.AppendKey(nil), b.AppendKey(nil); !bytes.Equal(ka, kb) {
			t.Errorf("Equal floats %#x and %#x have keys %x and %x", math.Float64bits(p[0]), math.Float64bits(p[1]), ka, kb)
		}
		if ha, hb := a.HashKey(hashkey.New()), b.HashKey(hashkey.New()); ha != hb {
			t.Errorf("Equal floats %#x and %#x hash to %#x and %#x", math.Float64bits(p[0]), math.Float64bits(p[1]), ha, hb)
		}
	}
}

// jsonGolden is every value kind at the edges where a hand-written
// JSON encoder and encoding/json could part ways.
func jsonGolden() []Value {
	return []Value{
		Null, Bool(true), Bool(false),
		Int(0), Int(-1), Int(math.MinInt64), Int(math.MaxInt64),
		Float(0), Float(math.Copysign(0, -1)), Float(1), Float(-3), Float(1e15), Float(123456789.125),
		Float(1e20), Float(1e21), Float(-1e21), Float(1.5e300), Float(math.MaxFloat64),
		Float(1e-6), Float(1e-7), Float(-1e-7), Float(9.999999e-7), Float(1.5e-10), Float(5e-324), Float(0.1),
		String(""), String("blue"), String(`say "hi"`), String(`back\slash`), String("tab\there\nnewline\r\b\f"),
		String("\x00\x01\x1f\x7f"), String("<script>&amp;</script>"), String("line\u2028sep\u2029"),
		String("café 日本 \U0001F600"), String("bad\xff\xfeutf8\xc3"), String("\xe2\x80"), String("\xed\xa0\x80"),
	}
}

func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	for _, v := range jsonGolden() {
		want, err := json.Marshal(v.Native())
		if err != nil {
			t.Fatal(err)
		}
		got, err := v.AppendJSON([]byte("x"))
		if err != nil || string(got) != "x"+string(want) {
			t.Errorf("%#v: AppendJSON = (%q, %v), encoding/json writes %q", v, got, err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got, err := Float(f).AppendJSON([]byte("x")); err == nil || string(got) != "x" {
			t.Errorf("Float(%v): AppendJSON = (%q, %v), want dst unchanged and an error", f, got, err)
		}
	}
}
