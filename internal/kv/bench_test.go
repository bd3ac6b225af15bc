package kv

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchPairs builds n pairs with keys drawn from a key space of width
// keys (duplicates group together) in shuffled order.
func benchPairs(n, keys int) []Pair {
	rng := rand.New(rand.NewSource(int64(n)))
	out := make([]Pair, n)
	for i := range out {
		out[i] = Pair{Key: int64(rng.Intn(keys)), Value: float64(i)}
	}
	return out
}

func BenchmarkSortPairs(b *testing.B) {
	ops := OpsFor[int64, float64](nil)
	for _, n := range []int{1 << 10, 1 << 14} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			src := benchPairs(n, n)
			buf := make([]Pair, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, src)
				ops.SortPairs(buf)
			}
		})
	}
}

func BenchmarkEncodePairs(b *testing.B) {
	src := benchPairs(1<<12, 1<<12)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ok bool
		buf, ok = AppendPairs(buf[:0], src)
		if !ok {
			b.Fatal("encode refused")
		}
	}
	b.SetBytes(int64(len(buf)))
}

func BenchmarkDecodePairs(b *testing.B) {
	buf, _ := AppendPairs(nil, benchPairs(1<<12, 1<<12))
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodePairs(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupPairs times grouping in the three forms the engines use
// it: one-shot GroupPairs (the baseline engine: fresh scratch per call),
// a long-lived Grouper (a persistent task: scratch reused, 0 allocs once
// warm), over shapes that cover both integer routes.
func BenchmarkGroupPairs(b *testing.B) {
	ops := OpsFor[int64, float64](nil)
	for _, shape := range []struct {
		n, keys int
		stride  int64 // key spacing: 1 is dense, large strides fall back to the sort
	}{
		{1 << 12, 1 << 12, 1},       // mostly unique keys (graph state)
		{1 << 12, 1 << 6, 1},        // heavy duplication (combiner input)
		{1 << 12, 1 << 12, 1 << 40}, // sparse ids
		{170_000, 23_000, 1},        // one reduce partition of the pagerank-tcp workload
	} {
		src := benchPairs(shape.n, shape.keys)
		for i := range src {
			src[i].Key = src[i].Key.(int64) * shape.stride
		}
		name := fmt.Sprintf("n=%d/keys=%d", shape.n, shape.keys)
		if shape.stride > 1 {
			name += "/sparse"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if g := GroupPairs(src, ops); len(g) == 0 {
					b.Fatal("empty grouping")
				}
			}
		})
		b.Run(name+"/reused", func(b *testing.B) {
			var gr Grouper
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if g := gr.Group(src, ops); len(g) == 0 {
					b.Fatal("empty grouping")
				}
			}
		})
	}
}

// BenchmarkColsCodec encodes and decodes one 2048-record column chunk of
// node ids (core.DefaultBufferThreshold records, the unit a full send
// buffer ships) and reports the cost and the wire size per record: keyed,
// and values-only ("-vals"), as a chunk whose keys the reduce holds
// travels.
func BenchmarkColsCodec(b *testing.B) {
	f, i := nodeChunk(2048)
	b.Run("f64", func(b *testing.B) { benchColsCodec(b, f) })
	b.Run("i64", func(b *testing.B) { benchColsCodec(b, i) })
}

func benchColsCodec[V Scalar](b *testing.B, c *Cols[V]) {
	for _, form := range []struct {
		name   string
		encode func(buf []byte) []byte
		decode func(data []byte, dst *Cols[V]) (int, error)
	}{
		{"", func(buf []byte) []byte { return AppendCols(buf, c) }, DecodeCols[V]},
		{"-vals", func(buf []byte) []byte { return AppendVals(buf, c.Vals) }, DecodeVals[V]},
	} {
		enc := form.encode(nil)
		perRec := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.Len()), "ns/rec")
			b.ReportMetric(float64(len(enc))/float64(c.Len()), "B/rec")
		}
		b.Run("encode"+form.name, func(b *testing.B) {
			buf := make([]byte, 0, len(enc))
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				buf = form.encode(buf[:0])
			}
			perRec(b)
		})
		b.Run("decode"+form.name, func(b *testing.B) {
			dst := AcquireCols[V]()
			defer dst.Release()
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				dst.Reset()
				if _, err := form.decode(enc, dst); err != nil {
					b.Fatal(err)
				}
			}
			perRec(b)
		})
	}
}

// BenchmarkColReduceInput times a column reduce's input path over one
// reduce partition of the pagerank-tcp workload — 170 000 records whose
// keys are the node ids below 91 641 that hash to partition 0 of 4 —
// arriving in 2048-record chunks: "group" copies the chunks into one
// batch and groups it, as a regrouped round does; "place" scatters them
// values-only by the slot maps of the previous round's layout as they
// arrive and finishes a hit, as every later round does.
func BenchmarkColReduceInput(b *testing.B) {
	const records, nodes = 170_000, 91_641
	rng := rand.New(rand.NewSource(1))
	var chunks []*Cols[float64]
	c := NewCols[float64](2048)
	for i := 0; i < records; {
		k := rng.Int63n(nodes)
		if PartitionInt64(k, 4) != 0 {
			continue
		}
		c.Append(k, float64(i))
		if i++; c.Len() == 2048 || i == records {
			chunks, c = append(chunks, c), NewCols[float64](2048)
		}
	}
	perRec := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/records, "ns/rec")
	}
	b.Run("group", func(b *testing.B) {
		var all Cols[float64]
		var g ColGrouper[float64]
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			all.Reset()
			for _, c := range chunks {
				all.AppendRange(c, 0, c.Len())
			}
			g.Group(&all)
		}
		perRec(b)
	})
	b.Run("place", func(b *testing.B) {
		// Four maps' chunks, keyed in the first round and values-only after.
		in := make([]ColChunk[float64], len(chunks))
		for i, c := range chunks {
			in[i] = ColChunk[float64]{Map: i % 4, Slot: i / 4, Keys: c.Keys, Vals: c.Vals}
		}
		var p ColPlacement[float64]
		var g ColGrouper[float64]
		p.Start(nil)
		for _, c := range in {
			p.Place(c)
		}
		_, layout, err := p.Group(&g, nil)
		if err != nil {
			b.Fatal(err)
		}
		for i := range in {
			in[i].Keys, in[i].Same = nil, true
		}
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			p.Reset()
			p.Start(layout)
			for _, c := range in {
				p.Place(c)
			}
			if _, l, _ := p.Group(&g, layout); l != layout {
				b.Fatal("a round of the same records missed")
			}
		}
		perRec(b)
	})
}
