package kv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func roundTrip(t *testing.T, ps []Pair) []Pair {
	t.Helper()
	buf, ok := AppendPairs(nil, ps)
	if !ok {
		t.Fatalf("AppendPairs refused %v", ps)
	}
	got, n, err := DecodePairs(buf)
	if err != nil {
		t.Fatalf("DecodePairs: %v", err)
	}
	if n != len(buf) {
		t.Fatalf("DecodePairs consumed %d of %d bytes", n, len(buf))
	}
	return got
}

func TestPairsRoundTripBuiltins(t *testing.T) {
	ps := []Pair{
		{int64(1), nil},
		{int64(-7), true},
		{"key", false},
		{int32(-3), int(42)},
		{uint64(9), int64(-1 << 40)},
		{int64(2), uint64(1<<63 + 5)},
		{int64(3), float32(1.5)},
		{int64(4), 3.14159},
		{int64(5), "hello world"},
		{int64(6), []byte{0, 1, 255}},
		{int64(7), []int32{-1, 0, 1 << 30}},
		{int64(8), []int64{-1 << 50, 7}},
		{int64(9), []float32{1, -2.5}},
		{int64(10), []float64{0.1, 0.2, 0.3}},
		{int64(11), []Pair{{int64(1), 2.0}, {"nested", []float64{9}}}},
	}
	got := roundTrip(t, ps)
	if !reflect.DeepEqual(ps, got) {
		t.Fatalf("round trip mismatch:\n in  %#v\n out %#v", ps, got)
	}
}

func TestPairsRoundTripEmpty(t *testing.T) {
	if got := roundTrip(t, []Pair{}); len(got) != 0 {
		t.Fatalf("empty list decoded to %v", got)
	}
}

// TestAppendPairsUnregisteredFallsBack: a value type with no codec is
// refused, the buffer comes back as it was, and Unencodable names the
// type.
func TestAppendPairsUnregisteredFallsBack(t *testing.T) {
	type stranger struct{ X int }
	base := []byte("prefix")
	ps := []Pair{{int64(1), 2.0}, {int64(2), stranger{3}}}
	buf, ok := AppendPairs(base, ps)
	if ok {
		t.Fatal("expected ok=false for unregistered value type")
	}
	if len(buf) != len(base) {
		t.Fatalf("buffer not truncated on failure: len %d, want %d", len(buf), len(base))
	}
	err := Unencodable(ps)
	if !errors.Is(err, ErrNoCodec) || !strings.Contains(err.Error(), "kv.stranger") {
		t.Fatalf("Unencodable = %v, want ErrNoCodec naming kv.stranger", err)
	}
	if err := Unencodable(ps[:1]); err != nil {
		t.Fatalf("Unencodable of encodable records = %v", err)
	}
}

func TestDecodePairsRejectsCorruption(t *testing.T) {
	buf, _ := AppendPairs(nil, []Pair{{int64(1), "abcdef"}})
	for cut := 1; cut < len(buf); cut++ {
		if _, _, err := DecodePairs(buf[:cut]); err == nil {
			// Truncation inside a varint can still parse shorter, but
			// cutting the final string payload must error.
			if cut > len(buf)-3 {
				t.Fatalf("truncation at %d/%d not detected", cut, len(buf))
			}
		}
	}
	if _, _, err := DecodePairs([]byte{0xff, 0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Fatal("absurd pair count accepted")
	}
}

// TestRegisterRoundTrip: a registered walk is its type's encoder and
// decoder both, a zero-length slice decodes as nil, and a walk whose
// nested value has no codec refuses the record.
func TestRegisterRoundTrip(t *testing.T) {
	type testRec struct {
		A int64
		B []float64
		C any
	}
	Register(func(f *Fields, r *testRec) {
		f.Varint(&r.A)
		f.F64s(&r.B)
		f.Value(&r.C)
	})
	ps := []Pair{{int64(1), testRec{A: -9, B: []float64{1, 2}, C: "c"}}, {int64(2), testRec{}}}
	got := roundTrip(t, ps)
	if !reflect.DeepEqual(ps, got) {
		t.Fatalf("custom codec round trip mismatch: %#v vs %#v", ps, got)
	}
	type stranger struct{}
	if _, ok := AppendValue(nil, testRec{C: stranger{}}); ok {
		t.Fatal("a record holding a value with no codec encoded")
	}
}

// TestOpsForEncodeDecode: records of the types an OpsFor bundle is built
// for round-trip through the codec in the order the bundle sorts them.
func TestOpsForEncodeDecode(t *testing.T) {
	ops := OpsFor[int64, float64](nil)
	ps := []Pair{{int64(3), 1.5}, {int64(1), -2.0}}
	ops.SortPairs(ps)
	if got := roundTrip(t, ps); !reflect.DeepEqual(ps, got) {
		t.Fatalf("ops round trip mismatch: %v vs %v", got, ps)
	}
}

// TestHostileSliceLengths: a slice length read off the wire that the
// bytes left cannot hold is an error, never a huge or out-of-range make.
func TestHostileSliceLengths(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<62)
	big := binary.AppendUvarint(nil, 1<<30) // in range for make, gigabytes of elements
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"int32s", append([]byte{byte(tagInt32s)}, huge...)},
		{"int64s", append([]byte{byte(tagInt64s)}, huge...)},
		{"float32s", append([]byte{byte(tagFloat32s)}, huge...)},
		{"float64s", append([]byte{byte(tagFloat64s)}, huge...)},
		{"int32s-big", append(append([]byte{byte(tagInt32s)}, big...), 1, 2)},
		{"float64s-overflow", append([]byte{byte(tagFloat64s)}, binary.AppendUvarint(nil, 1<<61)...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := DecodeValue(tc.data); err == nil {
				t.Fatal("DecodeValue accepted a hostile length")
			}
			s := AcquireSlab()
			defer s.Release()
			if _, _, err := decodeValue(tc.data, s); err == nil {
				t.Fatal("slab decode accepted a hostile length")
			}
		})
	}
	for name, walk := range map[string]func(*Fields){
		"Int32s":    func(f *Fields) { var xs []int32; f.Int32s(&xs) },
		"Int64s":    func(f *Fields) { var xs []int64; f.Int64s(&xs) },
		"F32s":      func(f *Fields) { var xs []float32; f.F32s(&xs) },
		"F64s":      func(f *Fields) { var xs []float64; f.F64s(&xs) },
		"String":    func(f *Fields) { var s string; f.String(&s) },
		"StringMap": func(f *Fields) { var m map[string]string; f.StringMap(&m) },
		"Strings":   func(f *Fields) { var xs []string; f.Strings(&xs) },
		"Slice":     func(f *Fields) { var xs [][]int32; Slice(f, &xs, (*Fields).Int32s) },
	} {
		for _, d := range [][]byte{huge, big, binary.AppendUvarint(nil, 1<<61)} {
			f := DecodeFields(d)
			if walk(&f); f.Err() == nil {
				t.Fatalf("%s accepted length prefix %x", name, d)
			}
		}
	}
}

// FuzzDecodePairs feeds arbitrary bytes to the pair decoder that every
// record off a socket, a spill file or an RPC goes through. Its heap
// form (a nil slab) and its slab form must agree — both fail, or both
// succeed after consuming the same bytes with the same pairs — and what
// decodes must survive AppendPairs and a second decode unchanged. Pairs
// are compared by their encoding, which names each value's type and
// keeps NaN bits.
func FuzzDecodePairs(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		heap, hn, herr := DecodePairs(data)
		s := AcquireSlab()
		defer s.Release()
		slab, sn, serr := DecodePairsSlab(data, s)
		if (herr == nil) != (serr == nil) {
			t.Fatalf("heap decode error %v, slab decode error %v", herr, serr)
		}
		if herr != nil {
			return
		}
		enc, ok := AppendPairs(nil, heap)
		if !ok {
			t.Fatalf("decoded pairs refuse to encode: %v", Unencodable(heap))
		}
		if senc, _ := AppendPairs(nil, slab); hn != sn || !bytes.Equal(enc, senc) {
			t.Fatalf("heap decode (%d bytes) %x, slab decode (%d bytes) %x", hn, enc, sn, senc)
		}
		again, n, err := DecodePairs(enc)
		if err != nil || n != len(enc) {
			t.Fatalf("re-decode of %x: %d bytes, %v", enc, n, err)
		}
		if enc2, _ := AppendPairs(nil, again); !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip changed the pairs: %x then %x", enc, enc2)
		}
	})
}

// TestFieldsReadsOnlyCanonical: a decoder takes only the bytes an encoder
// writes — a varint in its fewest bytes, a bool of 0 or 1, map keys
// ascending, no bytes past the value — so what decodes re-encodes to the
// same bytes; and its first error sticks.
func TestFieldsReadsOnlyCanonical(t *testing.T) {
	for name, c := range map[string]struct {
		data []byte
		walk func(*Fields)
	}{
		"overlong varint": {[]byte{0x81, 0x00}, func(f *Fields) { var x int64; f.Varint(&x) }},
		"bool 2":          {[]byte{2}, func(f *Fields) { var b bool; f.Bool(&b) }},
		"int32 range":     {AppendVarint(nil, 1<<40), func(f *Fields) { var x int32; f.Int32(&x) }},
		"count range":     {AppendUvarint(nil, 1<<40), func(f *Fields) { var x int; f.Count(&x) }},
		"map order":       {[]byte{2, 1, 'b', 0, 1, 'a', 0}, func(f *Fields) { var m map[string]string; f.StringMap(&m) }},
		"trailing byte":   {[]byte{1, 0}, func(f *Fields) { var x int; f.Int(&x) }},
	} {
		f := DecodeFields(c.data)
		if c.walk(&f); f.Done() == nil {
			t.Errorf("%s: %x decoded", name, c.data)
		}
	}
	f := DecodeFields([]byte{0x80})
	var a, b int64
	f.Varint(&a)
	err := f.Err()
	if f.Varint(&b); err == nil || f.Err() != err {
		t.Fatalf("first error %v, then %v", err, f.Err())
	}
}
