// Package value defines the typed scalar values stored in relation
// tuples: 64-bit integers, 64-bit floats, strings, booleans, and NULL.
//
// Values carry a total order (NULL < bool < int/float < string across
// kinds; natural order within a kind, with ints and floats compared
// numerically) so relations can be sorted deterministically, and an
// injective encoding used for hashing tuples under set semantics.
package value

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"divlaws/internal/hashkey"
)

// Kind enumerates the dynamic type of a Value.
type Kind uint8

// The supported value kinds.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is an immutable typed scalar. The zero Value is NULL.
type Value struct {
	kind Kind
	i    int64   // KindInt and KindBool (0/1)
	f    float64 // KindFloat
	s    string  // KindString
}

// Null is the NULL value.
var Null = Value{}

// Bool returns a boolean value.
func Bool(b bool) Value {
	v := Value{kind: KindBool}
	if b {
		v.i = 1
	}
	return v
}

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// String returns a string value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Kind reports the dynamic type of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsBool returns the boolean payload; it panics for non-bool kinds.
func (v Value) AsBool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("value: AsBool on %s", v.kind))
	}
	return v.i != 0
}

// AsInt returns the integer payload; it panics for non-int kinds.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("value: AsInt on %s", v.kind))
	}
	return v.i
}

// AsFloat returns the numeric payload as float64 for int and float
// kinds; it panics for other kinds.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindInt:
		return float64(v.i)
	case KindFloat:
		return v.f
	default:
		panic(fmt.Sprintf("value: AsFloat on %s", v.kind))
	}
}

// AsString returns the string payload; it panics for non-string kinds.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("value: AsString on %s", v.kind))
	}
	return v.s
}

// IsNumeric reports whether v is an int or float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// rank orders kinds for the cross-kind total order.
func (v Value) rank() int {
	switch v.kind {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt, KindFloat: // numerics compare with each other
		return 2
	case KindString:
		return 3
	default:
		return 4
	}
}

// Compare returns -1, 0, or +1 ordering v against w under the total
// order. Numerics of different kinds compare by numeric value; an int
// and a float that are numerically equal are equal under Compare but
// remain distinguishable by Equal and by the set-semantics key.
func Compare(v, w Value) int {
	if rv, rw := v.rank(), w.rank(); rv != rw {
		return cmpInt(rv, rw)
	}
	switch v.kind {
	case KindNull:
		return 0
	case KindBool:
		return cmpInt64(v.i, w.i)
	case KindString:
		return strings.Compare(v.s, w.s)
	default: // numeric
		if v.kind == KindInt && w.kind == KindInt {
			return cmpInt64(v.i, w.i)
		}
		a, b := v.AsFloat(), w.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
}

func cmpInt(a, b int) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports exact equality: same kind and same payload. NULL
// equals NULL under Equal (set semantics treat NULL as a regular
// domain element, as the paper's relations contain no NULLs anyway).
func (v Value) Equal(w Value) bool {
	if v.kind != w.kind {
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindBool, KindInt:
		return v.i == w.i
	case KindFloat:
		return v.f == w.f || (math.IsNaN(v.f) && math.IsNaN(w.f))
	case KindString:
		return v.s == w.s
	default:
		return false
	}
}

// AppendKey appends an injective binary encoding of v to dst. Two
// values have identical encodings iff Equal reports true, so the
// encoding can key hash maps implementing set semantics.
func (v Value) AppendKey(dst []byte) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindBool, KindInt:
		dst = appendUint64(dst, uint64(v.i))
	case KindFloat:
		f := v.f
		if math.IsNaN(f) {
			f = math.NaN() // canonical NaN
		}
		dst = appendUint64(dst, math.Float64bits(f))
	case KindString:
		dst = appendUint64(dst, uint64(len(v.s)))
		dst = append(dst, v.s...)
	}
	return dst
}

// Per-kind 64-bit salts XORed into a value's payload word before the
// single AddUint64 mix in HashKey. The salts keep same-payload values
// of different kinds (Null, Bool(false), Int(0), Float(0)) from
// hashing alike without spending a second mix on the kind tag; cross-
// kind collisions are merely improbable, not impossible, which is
// fine — every hash consumer verifies candidates against stored keys.
// Arbitrary odd constants; indexed kind&7 to elide bounds checks.
var kindSalt = [8]uint64{
	KindNull:   0x9ae16a3b2f90404f,
	KindBool:   0xc2b2ae3d27d4eb4f,
	KindInt:    0x165667b19e3779f9,
	KindFloat:  0x27d4eb2f165667c5,
	KindString: 0x85ebca77c2b2ae63,
	5:          0x2545f4914f6cdd1d,
	6:          0x5851f42d4c957f2d,
	7:          0x14057b7ef767814f,
}

// canonicalNaN is math.Float64bits(math.NaN()), the representative
// every NaN payload collapses to so all NaNs hash and encode alike
// (Equal treats them as equal).
const canonicalNaN = 0x7ff8000000000001

// HashKey folds v into the running hash h without materializing any
// bytes. Non-string kinds cost exactly one AddUint64 round: the
// payload word (i and the float bits occupy disjoint fields, so their
// XOR is whichever is set) XORed with the kind's salt. Strings salt h
// and hand the contents to hashkey.AddString's word-at-a-time kernel,
// which folds the length itself. Equal values hash alike (NaN is
// canonicalized first), and HashEncodedKey recomputes the identical
// hash from an AppendKey encoding — the bridge string-keyed callers
// use.
func (v Value) HashKey(h uint64) uint64 {
	switch v.kind {
	case KindString:
		return hashkey.AddString(h^kindSalt[KindString], v.s)
	case KindFloat:
		bits := math.Float64bits(v.f)
		if v.f != v.f {
			bits = canonicalNaN
		}
		return hashkey.AddUint64(h, bits^kindSalt[KindFloat])
	default:
		// Null, Bool, Int: the integer payload word (zero for Null)
		// under the kind's salt. The switch keeps the all-int hot path
		// free of the float load the Float arm needs; the arms produce
		// bit-identical hashes to a branchless payload-XOR form, so
		// HashEncodedKey's replay is unaffected.
		return hashkey.AddUint64(h, uint64(v.i)^kindSalt[v.kind&7])
	}
}

// HashEncodedKey folds an AppendKey-produced encoding (one value or
// a whole tuple's concatenation) into h exactly as the corresponding
// HashKey calls would, so a tuple's hash can be recomputed from its
// stored string key alone. The string length prefix is consumed for
// framing only — HashKey does not mix it separately (AddString folds
// the length into its tail round). Trailing bytes that do not form a
// valid encoding are folded through AddString; keys produced by
// AppendKey never have any.
func HashEncodedKey(h uint64, key string) uint64 {
	for len(key) > 0 {
		kind := Kind(key[0])
		key = key[1:]
		switch kind {
		case KindNull:
			h = hashkey.AddUint64(h, kindSalt[KindNull])
		case KindBool, KindInt, KindFloat:
			if len(key) < 8 {
				return hashkey.AddString(h, key)
			}
			h = hashkey.AddUint64(h, readUint64(key)^kindSalt[kind&7])
			key = key[8:]
		case KindString:
			if len(key) < 8 {
				return hashkey.AddString(h, key)
			}
			n := readUint64(key)
			key = key[8:]
			if uint64(len(key)) < n {
				return hashkey.AddString(h, key)
			}
			h = hashkey.AddString(h^kindSalt[KindString], key[:n])
			key = key[n:]
		default:
			return hashkey.AddString(h, key)
		}
	}
	return h
}

// DecodeKey decodes one value from the front of an AppendKey-produced
// encoding, returning the value and the remaining bytes. It is the
// exact inverse of AppendKey (modulo NaN canonicalization, which
// AppendKey already applied), which lets spilled tuples round-trip
// through temp files using the same injective encoding that keys the
// engine's hash maps. A string payload is materialized by str, which
// must return a string equal to its argument and not retain the bytes
// — the spill reader's hook for reusing recently decoded strings. A
// truncated or unknown-kind prefix returns an error rather than a
// partial value.
func DecodeKey(b []byte, str func([]byte) string) (Value, []byte, error) {
	if len(b) == 0 {
		return Value{}, b, fmt.Errorf("value: DecodeKey on empty input")
	}
	kind := Kind(b[0])
	b = b[1:]
	switch kind {
	case KindNull:
		return Null, b, nil
	case KindBool, KindInt, KindFloat:
		if len(b) < 8 {
			return Value{}, b, fmt.Errorf("value: DecodeKey: truncated %s payload", kind)
		}
		u := readUint64(string(b[:8]))
		b = b[8:]
		switch kind {
		case KindBool:
			return Bool(u != 0), b, nil
		case KindInt:
			return Int(int64(u)), b, nil
		default:
			return Float(math.Float64frombits(u)), b, nil
		}
	case KindString:
		if len(b) < 8 {
			return Value{}, b, fmt.Errorf("value: DecodeKey: truncated string length")
		}
		n := readUint64(string(b[:8]))
		b = b[8:]
		if uint64(len(b)) < n {
			return Value{}, b, fmt.Errorf("value: DecodeKey: truncated string payload (want %d bytes, have %d)", n, len(b))
		}
		return String(str(b[:n])), b[n:], nil
	default:
		return Value{}, b, fmt.Errorf("value: DecodeKey: unknown kind %d", uint8(kind))
	}
}

// Footprint approximates the live heap bytes held by v: the struct
// itself plus string payload. It intentionally overestimates shared
// string backing arrays — memory accounting rounds up, never down.
func (v Value) Footprint() int64 {
	const structSize = 32 // kind + padding + i + f + string header
	return structSize + int64(len(v.s))
}

func readUint64(s string) uint64 {
	return uint64(s[0])<<56 | uint64(s[1])<<48 | uint64(s[2])<<40 |
		uint64(s[3])<<32 | uint64(s[4])<<24 | uint64(s[5])<<16 |
		uint64(s[6])<<8 | uint64(s[7])
}

func appendUint64(dst []byte, u uint64) []byte {
	return append(dst,
		byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
		byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
}

// String renders the value the way the paper's figures print domain
// elements: bare numerals, unquoted strings, NULL for null.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	default:
		return "?"
	}
}

// Native returns the value as the natural Go type: nil, bool, int64,
// float64, or string. It is the inverse of the row constructors and
// backs scanning into *any destinations.
func (v Value) Native() any {
	switch v.kind {
	case KindBool:
		return v.i != 0
	case KindInt:
		return v.i
	case KindFloat:
		return v.f
	case KindString:
		return v.s
	default:
		return nil
	}
}

// AppendJSON appends v as JSON, byte for byte what encoding/json
// writes for Native() (floats in 'f' form except below 1e-6 or from
// 1e21 up), without boxing it. NaN and the infinities have no JSON
// form and are an error.
func (v Value) AppendJSON(dst []byte) ([]byte, error) {
	switch v.kind {
	case KindBool:
		return strconv.AppendBool(dst, v.i != 0), nil
	case KindInt:
		return strconv.AppendInt(dst, v.i, 10), nil
	case KindFloat:
		abs := math.Abs(v.f)
		if math.IsNaN(abs) || math.IsInf(abs, 1) {
			return dst, fmt.Errorf("unsupported JSON value %s", v)
		}
		if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
			dst = strconv.AppendFloat(dst, v.f, 'e', -1, 64)
			// e-09 to e-9, as encoding/json cleans it up
			if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
				dst = append(dst[:n-2], dst[n-1])
			}
			return dst, nil
		}
		return strconv.AppendFloat(dst, v.f, 'f', -1, 64), nil
	case KindString:
		return appendJSONString(dst, v.s), nil
	default:
		return append(dst, "null"...), nil
	}
}

// appendJSONString appends s as encoding/json quotes it. Valid UTF-8
// with nothing to escape — the usual string — is copied between
// quotes; anything else is left to encoding/json itself.
func appendJSONString(dst []byte, s string) []byte {
	clean := utf8.ValidString(s)
	for i := 0; clean && i < len(s); i++ {
		switch s[i] {
		case '"', '\\', '<', '>', '&':
			clean = false
		case 0xe2: // U+2028 and U+2029 are escaped too
			clean = !strings.HasPrefix(s[i:], "\u2028") && !strings.HasPrefix(s[i:], "\u2029")
		default:
			clean = s[i] >= ' '
		}
	}
	if !clean {
		q, _ := json.Marshal(s) // a string always marshals
		return append(dst, q...)
	}
	return append(append(append(dst, '"'), s...), '"')
}

// GoString renders the value as a Go expression, for test diagnostics.
func (v Value) GoString() string {
	switch v.kind {
	case KindNull:
		return "value.Null"
	case KindBool:
		return fmt.Sprintf("value.Bool(%t)", v.i != 0)
	case KindInt:
		return fmt.Sprintf("value.Int(%d)", v.i)
	case KindFloat:
		return fmt.Sprintf("value.Float(%g)", v.f)
	case KindString:
		return fmt.Sprintf("value.String(%q)", v.s)
	default:
		return "value.Value{?}"
	}
}

// Add returns the numeric sum of v and w. Ints stay ints; any float
// operand promotes the result to float. It panics on non-numerics.
func Add(v, w Value) Value {
	if v.kind == KindInt && w.kind == KindInt {
		return Int(v.i + w.i)
	}
	return Float(v.AsFloat() + w.AsFloat())
}

// Less reports whether v sorts strictly before w.
func Less(v, w Value) bool { return Compare(v, w) < 0 }

// Min returns the smaller of v and w under Compare.
func Min(v, w Value) Value {
	if Compare(w, v) < 0 {
		return w
	}
	return v
}

// Max returns the larger of v and w under Compare.
func Max(v, w Value) Value {
	if Compare(w, v) > 0 {
		return w
	}
	return v
}
