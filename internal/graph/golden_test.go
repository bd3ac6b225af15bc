package graph

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// checksum is the FNV-1a hash of g's CSR arrays: N, then every offset,
// destination and weight bit pattern, each as a little-endian word.
func checksum(g *Graph) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	word(uint64(g.N))
	for _, o := range g.Off {
		word(uint64(o))
	}
	for _, d := range g.Dst {
		word(uint64(uint32(d)))
	}
	for _, w := range g.W {
		word(uint64(math.Float32bits(w)))
	}
	return h.Sum64()
}

// TestGenerateGolden pins Generate's output for the catalogue's
// datasets: every one at scale 1000, those of at most 100 000 nodes at
// scale 100, and the two PageRank graphs the benchmark runs at scale 10.
// A generator change that moves one random draw or reorders one edge
// changes every graph the experiments and the benchmark run on.
func TestGenerateGolden(t *testing.T) {
	golden := []struct {
		scale int
		name  string
		sum   uint64
	}{
		{1000, "dblp", 0x55ca2ea4367f1fa3},
		{1000, "facebook", 0x5398c97da4bc6944},
		{1000, "sssp-s", 0xb3289a7dd22a79d0},
		{1000, "sssp-m", 0xfbcfe9227284799a},
		{1000, "sssp-l", 0x3bc3b116052f59a},
		{1000, "google", 0xac4bf730daae34fc},
		{1000, "berkstan", 0xf5e65f3d9350eec2},
		{1000, "pagerank-s", 0x6af379b4f26de9f3},
		{1000, "pagerank-m", 0x3f509c5971f2d591},
		{1000, "pagerank-l", 0x2bdc072688fe14da},
		{100, "dblp", 0xd885c37b6cbf0a91},
		{100, "facebook", 0xb16a3bd7476553c1},
		{100, "sssp-s", 0xbbe4f1db8a2f903f},
		{100, "sssp-m", 0xa60966f564dda9e6},
		{100, "google", 0x23dd785e7b2692ca},
		{100, "berkstan", 0xb68c7333d25ef836},
		{100, "pagerank-s", 0xa6f46c53a2544334},
		{100, "pagerank-m", 0xbf316f164ab5953e},
		{10, "google", 0x8d23dd4c0407ed30},
		{10, "berkstan", 0x9f5f2e698e871c10},
	}
	for _, g := range golden {
		d, err := ByName(g.name, g.scale)
		if err != nil {
			t.Fatal(err)
		}
		if got := checksum(d.Build()); got != g.sum {
			t.Errorf("%s at scale %d: checksum %#x, want %#x", g.name, g.scale, got, g.sum)
		}
	}
}
