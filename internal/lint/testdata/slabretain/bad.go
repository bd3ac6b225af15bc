// Fixture for the slabretain analyzer: every line carrying a
// want-expectation comment must produce a matching finding.
// Fixtures are parse-only — kv here is a stand-in, not the real package.
package fixture

import "imapreduce/internal/kv"

type chunk struct {
	From  string
	Pairs []kv.Pair
}

func (c *chunk) release() {}

func sink(any) {}

// The decoded pairs alias the slab's pair block; Release recycles it.
func useAfterRelease(data []byte) {
	s := kv.AcquireSlab()
	pairs, _, _ := kv.DecodePairsSlab(data, s)
	s.Release()
	sink(pairs) // want "use of pairs in useAfterRelease after s.Release at line 21"
}

// The slab itself is pooled memory too: no decoding into it after
// Release handed it back.
func decodeAfterRelease(data []byte) {
	s := kv.AcquireSlab()
	_, _, _ = kv.DecodePairsSlab(data, s)
	s.Release()
	_, _, _ = kv.DecodePairsSlab(data, s) // want "use of s in decodeAfterRelease after s.Release at line 30"
}

// A second release of the same slab panics at runtime.
func doubleRelease() {
	s := kv.AcquireSlab()
	s.Release()
	s.Release() // want "s.Release in doubleRelease but s was already released at line 37"
}

// chunk.release() returns the chunk's slab, so c.Pairs dies with it —
// even when the release happens in only one branch.
func chunkPairsAfterRelease(c *chunk, early bool) {
	if early {
		c.release()
	}
	sink(c.Pairs) // want "use of c.Pairs in chunkPairsAfterRelease after c.release at line 45"
}
