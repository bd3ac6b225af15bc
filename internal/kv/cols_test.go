package kv

import (
	"bytes"
	"encoding/hex"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestPartitionInt64MatchesOps: over 10⁵ keys — consecutive, negative,
// the extremes, random — the unboxed partition is the one Ops.Partition
// picks for the boxed key, at every partition count a job might run.
func TestPartitionInt64MatchesOps(t *testing.T) {
	ops := OpsFor[int64, float64](nil)
	rng := rand.New(rand.NewSource(1))
	keys := []int64{math.MinInt64, math.MaxInt64, -1, 0}
	for len(keys) < 100_000 {
		switch len(keys) % 3 {
		case 0:
			keys = append(keys, int64(len(keys)))
		case 1:
			keys = append(keys, -int64(len(keys)))
		default:
			keys = append(keys, rng.Int63()-rng.Int63())
		}
	}
	for _, n := range []int{1, 2, 3, 4, 7, 16, 100} {
		for _, k := range keys {
			if got, want := PartitionInt64(k, n), ops.Partition(k, n); got != want {
				t.Fatalf("key %d over %d partitions: PartitionInt64 %d, Ops.Partition %d", k, n, got, want)
			}
		}
	}
}

// colsOf returns pairs as a column batch.
func colsOf[V Scalar](pairs []Pair) *Cols[V] {
	c := NewCols[V](len(pairs))
	for _, p := range pairs {
		c.Append(p.Key.(int64), p.Value.(V))
	}
	return c
}

// TestColGrouperMatchesGrouper: grouping a column batch gives the groups
// Grouper gives the same records as pairs — keys ascending, values in
// arrival order — on the counting scatter and on the sort, across
// reuses of one ColGrouper at shrinking and growing sizes.
func TestColGrouperMatchesGrouper(t *testing.T) {
	ops := OpsFor[int64, float64](nil)
	rng := rand.New(rand.NewSource(2))
	var cg ColGrouper[float64]
	for _, shape := range []struct {
		n    int
		span int64
		base int64
	}{
		{1, 1, 0}, {64, 16, 0}, {2000, 500, -250}, {300, 1 << 40, 0},
		{5, 3, math.MaxInt64 - 3}, {5, 3, math.MinInt64}, {4096, 4096, 1 << 33}, {700, 2, -1},
	} {
		pairs := make([]Pair, shape.n)
		for i := range pairs {
			pairs[i] = Pair{Key: shape.base + rng.Int63n(shape.span), Value: float64(i)}
		}
		want := GroupPairs(pairs, ops)
		got := cg.Group(colsOf[float64](pairs))
		if len(got.Keys) != len(want) || len(got.Ends) != len(want) {
			t.Fatalf("n=%d span=%d: %d groups, want %d", shape.n, shape.span, len(got.Keys), len(want))
		}
		for i, w := range want {
			vals := got.Values(i)
			if got.Keys[i] != w.Key.(int64) || len(vals) != len(w.Values) {
				t.Fatalf("n=%d span=%d group %d: key %d with %d values, want %v with %d", shape.n, shape.span, i, got.Keys[i], len(vals), w.Key, len(w.Values))
			}
			for j, v := range vals {
				if v != w.Values[j].(float64) {
					t.Fatalf("n=%d span=%d group %d value %d: %v, want %v", shape.n, shape.span, i, j, v, w.Values[j])
				}
			}
		}
	}
}

// TestColGrouperSteadyStateAllocs: once a ColGrouper has seen an input
// size, grouping it again allocates nothing, on either route.
func TestColGrouperSteadyStateAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race sweep")
	}
	for _, stride := range []int64{1, 1 << 40} {
		c := NewCols[float64](4096)
		for i := 0; i < 4096; i++ {
			c.Append(int64(i%1024)*stride, float64(i))
		}
		var g ColGrouper[float64]
		g.Group(c)
		if allocs := testing.AllocsPerRun(20, func() { g.Group(c) }); allocs != 0 {
			t.Errorf("stride %d: %v allocs per steady-state Group call, want 0", stride, allocs)
		}
	}
}

// TestColsRoundTrip: both value types survive the column encoding bit
// for bit, and a decode appends to what the batch already holds.
func TestColsRoundTrip(t *testing.T) {
	f := &Cols[float64]{
		Keys: []int64{0, -1, math.MaxInt64, math.MinInt64, 7},
		Vals: []float64{math.Inf(1), math.Copysign(0, -1), math.NaN(), math.SmallestNonzeroFloat64, 0.15},
	}
	got := &Cols[float64]{Keys: []int64{42}, Vals: []float64{1}}
	enc := AppendCols(nil, f)
	n, err := DecodeCols(enc, got)
	if err != nil || n != len(enc) {
		t.Fatalf("decode: %d of %d bytes, %v", n, len(enc), err)
	}
	if got.Len() != 6 || got.Keys[0] != 42 {
		t.Fatalf("decode did not append: %v", got.Keys)
	}
	for i := range f.Keys {
		if got.Keys[i+1] != f.Keys[i] || !sameBits(got.Vals[i+1], f.Vals[i]) {
			t.Fatalf("record %d: (%d, %v), want (%d, %v)", i, got.Keys[i+1], got.Vals[i+1], f.Keys[i], f.Vals[i])
		}
	}
	ints := &Cols[int64]{Keys: []int64{3, -3}, Vals: []int64{math.MinInt64, 255}}
	back := new(Cols[int64])
	if _, err := DecodeCols(AppendCols(nil, ints), back); err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 || back.Vals[0] != math.MinInt64 || back.Vals[1] != 255 || back.Keys[1] != -3 {
		t.Fatalf("int64 columns round trip to %v %v", back.Keys, back.Vals)
	}
}

// TestColsGolden pins the column encoding byte for byte — the count,
// each integer column's zigzag base, width byte and little-endian
// offsets, the float64 words — at key and value widths 1 to 5 and 8,
// with negative keys, one record, all-equal records and no records, and
// every case decodes back to its records, consuming every byte.
func TestColsGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		cols interface{ Len() int }
		hex  string
	}{
		{"empty", &Cols[float64]{}, "00"},
		{"one record", &Cols[float64]{Keys: []int64{1}, Vals: []float64{1.5}},
			"01" + "0201" + "00" + "000000000000f83f"},
		{"all equal", &Cols[int64]{Keys: []int64{9, 9, 9}, Vals: []int64{4, 4, 4}},
			"03" + "1201" + "000000" + "0801" + "000000"},
		{"width 1, negative keys", &Cols[int64]{Keys: []int64{-2, -1, -3}, Vals: []int64{0, 1, -1}},
			"03" + "0501" + "010200" + "0101" + "010200"},
		{"width 2", &Cols[int64]{Keys: []int64{0, 256}, Vals: []int64{7, 7}},
			"02" + "0002" + "0000" + "0001" + "0e01" + "00" + "00"},
		{"width 3, negative base", &Cols[float64]{Keys: []int64{-5, 1 << 16}, Vals: []float64{0, math.Copysign(0, -1)}},
			"02" + "0903" + "000000" + "050001" + "0000000000000000" + "0000000000000080"},
		{"width 4, int64 values of width 4", &Cols[int64]{Keys: []int64{100, 100 + 1<<24}, Vals: []int64{math.MinInt32, math.MaxInt32}},
			"02" + "c80104" + "00000000" + "00000001" + "ffffffff0f04" + "00000000" + "ffffffff"},
		{"width 5", &Cols[float64]{Keys: []int64{1 << 32, 0}, Vals: []float64{2, 1}},
			"02" + "0005" + "0000000001" + "0000000000" + "0000000000000040" + "000000000000f03f"},
		{"width 8, the whole int64 range", &Cols[float64]{Keys: []int64{math.MaxInt64, math.MinInt64}, Vals: []float64{1, 2}},
			"02" + "ffffffffffffffffff0108" + "ffffffffffffffff" + "0000000000000000" + "000000000000f03f" + "0000000000000040"},
	} {
		var enc []byte
		var back interface{ Len() int }
		var err error
		var n int
		switch c := tc.cols.(type) {
		case *Cols[float64]:
			enc = AppendCols(nil, c)
			got := new(Cols[float64])
			n, err = DecodeCols(enc, got)
			if err == nil && !slices.Equal(got.Keys, c.Keys) {
				t.Errorf("%s: keys decode to %v, want %v", tc.name, got.Keys, c.Keys)
			}
			for i := range got.Vals {
				if !sameBits(got.Vals[i], c.Vals[i]) {
					t.Errorf("%s: value %d decodes to %v, want %v", tc.name, i, got.Vals[i], c.Vals[i])
				}
			}
			back = got
		case *Cols[int64]:
			enc = AppendCols(nil, c)
			got := new(Cols[int64])
			n, err = DecodeCols(enc, got)
			if err == nil && (!slices.Equal(got.Keys, c.Keys) || !slices.Equal(got.Vals, c.Vals)) {
				t.Errorf("%s: decodes to %v %v, want %v %v", tc.name, got.Keys, got.Vals, c.Keys, c.Vals)
			}
			back = got
		}
		if got := hex.EncodeToString(enc); got != tc.hex {
			t.Errorf("%s: encodes to %s, want %s", tc.name, got, tc.hex)
		}
		if err != nil || n != len(enc) || back.Len() != tc.cols.Len() {
			t.Errorf("%s: decoded %d records from %d of %d bytes, %v", tc.name, back.Len(), n, len(enc), err)
		}
	}
}

// TestDecodeColsRejectsBadWidths: a column width outside 1–8, or missing,
// in the key column or an int64 value column, fails the decode of either
// value type, and the batch is left as it was.
func TestDecodeColsRejectsBadWidths(t *testing.T) {
	for _, data := range [][]byte{
		{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},    // key width 0
		{1, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // key width 9
		{1, 0},                               // key width missing
		{1, 0, 1, 0, 0, 0, 0},                // int64 value width 0
		{1, 0, 1, 0, 0},                      // int64 value width missing
	} {
		f := &Cols[float64]{Keys: []int64{1}, Vals: []float64{2}}
		i := &Cols[int64]{Keys: []int64{1}, Vals: []int64{2}}
		if _, err := DecodeCols(data, f); err == nil {
			t.Fatalf("%x decoded as float64 columns", data)
		}
		if _, err := DecodeCols(data, i); err == nil {
			t.Fatalf("%x decoded as int64 columns", data)
		}
		if f.Len() != 1 || i.Len() != 1 {
			t.Fatalf("%x: a failed decode left %d and %d records", data, f.Len(), i.Len())
		}
	}
}

// TestDecodeColsAllocs: decoding a 2048-record chunk into a warm batch
// from the pool allocates nothing, for either value type.
func TestDecodeColsAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race instrumentation allocates; gate runs in the non-race sweep")
	}
	f, i := nodeChunk(2048)
	testDecodeAllocs[float64](t, AppendCols(nil, f))
	testDecodeAllocs[int64](t, AppendCols(nil, i))
}

func testDecodeAllocs[V Scalar](t *testing.T, enc []byte) {
	c := AcquireCols[V]()
	defer c.Release()
	if _, err := DecodeCols(enc, c); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		c.Reset()
		if _, err := DecodeCols(enc, c); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("%d-byte %T chunk: %v allocs per decode into a warm batch, want 0", len(enc), c, allocs)
	}
}

// nodeChunk returns two n-record batches whose keys are uniform node ids
// of the pagerank-tcp graph (below 91 641), one with float64 values and
// one with int64 values.
func nodeChunk(n int) (*Cols[float64], *Cols[int64]) {
	rng := rand.New(rand.NewSource(int64(n)))
	f, i := NewCols[float64](n), NewCols[int64](n)
	for r := 0; r < n; r++ {
		k := rng.Int63n(91_641)
		f.Append(k, rng.Float64())
		i.Append(k, rng.Int63n(1<<20))
	}
	return f, i
}

// TestColsBoxUnbox: Box appends a batch's records as (int64, V) pairs,
// which encode as any pairs of those types do and Unbox takes back bit for
// bit, appending; a pair of any other types fails Unbox and leaves the
// batch as it was.
func TestColsBoxUnbox(t *testing.T) {
	f := &Cols[float64]{Keys: []int64{-1, 0, 9}, Vals: []float64{math.NaN(), math.Copysign(0, -1), 2.5}}
	pairs := f.Box([]Pair{{Key: "kept", Value: 1}})
	if len(pairs) != 4 || pairs[0].Key != "kept" {
		t.Fatalf("Box did not append: %v", pairs)
	}
	pairs = pairs[1:]
	for i, p := range pairs {
		if p.Key != f.Keys[i] || !sameBits(p.Value.(float64), f.Vals[i]) {
			t.Fatalf("pair %d = %v, want (%d, %v)", i, p, f.Keys[i], f.Vals[i])
		}
	}
	boxed, _ := AppendPairs(nil, pairs)
	want, _ := AppendPairs(nil, []Pair{{Key: int64(-1), Value: math.NaN()}, {Key: int64(0), Value: math.Copysign(0, -1)}, {Key: int64(9), Value: 2.5}})
	if !bytes.Equal(boxed, want) {
		t.Fatal("boxed records encode differently from the same pairs")
	}
	back := &Cols[float64]{Keys: []int64{-7}, Vals: []float64{7}}
	if err := back.Unbox(pairs); err != nil {
		t.Fatal(err)
	}
	if back.Len() != 4 || back.Keys[0] != -7 {
		t.Fatalf("Unbox did not append: %v", back.Keys)
	}
	for i := range f.Keys {
		if back.Keys[i+1] != f.Keys[i] || !sameBits(back.Vals[i+1], f.Vals[i]) {
			t.Fatalf("record %d: (%d, %v), want (%d, %v)", i, back.Keys[i+1], back.Vals[i+1], f.Keys[i], f.Vals[i])
		}
	}
	for _, bad := range []Pair{{Key: int32(1), Value: 1.0}, {Key: int64(1), Value: int64(1)}, {Key: int64(1), Value: nil}} {
		if err := back.Unbox([]Pair{{Key: int64(3), Value: 3.0}, bad}); err == nil {
			t.Fatalf("Unbox took %#v", bad)
		}
		if back.Len() != 4 {
			t.Fatalf("a failed Unbox left %d records, want 4", back.Len())
		}
	}
}

// TestDecodeColsRejectsHostileCounts: a count the bytes left cannot hold
// fails before anything grows, and a failed decode leaves the batch as
// it was.
func TestDecodeColsRejectsHostileCounts(t *testing.T) {
	for _, data := range [][]byte{
		{0xff, 0xff, 0xff, 0xff, 0x0f},
		AppendUvarint(nil, 1<<62),
		append(AppendUvarint(nil, 2), 1, 1, 1, 1), // float values truncated
		append(AppendUvarint(nil, 1), 0x80),       // truncated key
	} {
		dst := &Cols[float64]{Keys: []int64{1}, Vals: []float64{2}}
		if _, err := DecodeCols(data, dst); err == nil {
			t.Fatalf("%x decoded", data)
		}
		if dst.Len() != 1 || cap(dst.Keys) > 64 {
			t.Fatalf("%x: a failed decode left %d records, capacity %d", data, dst.Len(), cap(dst.Keys))
		}
	}
}

// FuzzDecodeCols: arbitrary bytes decode or fail without a panic, growing
// the batch by no more records than the input has bytes, and every
// successful decode round-trips through the encoder.
func FuzzDecodeCols(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendCols(nil, &Cols[float64]{Keys: []int64{1, -2}, Vals: []float64{0.5, math.Inf(1)}}))
	f.Add(AppendCols(nil, &Cols[int64]{Keys: []int64{1, 1 << 40}, Vals: []int64{-9, 3}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzColsRoundTrip[float64](t, data)
		fuzzColsRoundTrip[int64](t, data)
	})
}

func fuzzColsRoundTrip[V Scalar](t *testing.T, data []byte) {
	c := AcquireCols[V]()
	defer c.Release()
	n, err := DecodeCols(data, c)
	if err != nil {
		if c.Len() != 0 {
			t.Fatalf("failed decode of %x left %d records", data, c.Len())
		}
		return
	}
	if c.Len() > len(data) || n > len(data) {
		t.Fatalf("%x: %d records from %d bytes, %d consumed", data, c.Len(), len(data), n)
	}
	enc := AppendCols(nil, c)
	again := new(Cols[V])
	if m, err := DecodeCols(enc, again); err != nil || m != len(enc) {
		t.Fatalf("re-decode of %x: %d of %d bytes, %v", enc, m, len(enc), err)
	}
	if enc2 := AppendCols(nil, again); !bytes.Equal(enc, enc2) {
		t.Fatalf("round trip changed the records: %x then %x", enc, enc2)
	}
}

// sameBits reports whether a and b are the same value bit for bit: for
// float64, +0 and -0 differ and a NaN equals itself.
func sameBits[V Scalar](a, b V) bool {
	if isFloat[V]() {
		return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
	}
	return a == b
}
