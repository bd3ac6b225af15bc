package kv

import (
	"sync"
	"unsafe"
)

// Slab is a reusable decode arena. DecodePairsSlab carves its []Pair
// result out of a pooled block instead of allocating one per chunk, and
// boxes every scalar key/value into arena cells instead of one heap
// allocation per value — the 1.5-allocs-per-pair cost that dominated
// the receive path. Strings are interned into a byte arena.
//
// Ownership protocol (mirrors the sendShuffle buffer-ownership rule):
// the caller that acquired the slab owns the decoded pair list until it
// releases the slab, and must release it exactly once. Release recycles
// the pair block and hands the value arenas to the garbage collector, so
// the pair slices die with the slab while every boxed key and value
// stays valid for as long as something refers to it — decoded values
// escape into accumulators, user reduce state and re-emitted pairs.
//
// A Slab is not safe for concurrent use; the pool it comes from is.
type Slab struct {
	pairs []Pair   // current []Pair block; takePairs carves from it
	words []uint64 // scalar cell arena (one 8-byte cell per boxed scalar)
	strs  []string // string header arena
	bts   []byte   // string byte arena

	np, nw, ns, nb int // used prefix of each block

	released bool
}

// Arena block sizing: grown geometrically, never shrunk while attached.
const (
	minPairBlock = 512
	minWordBlock = 1024
	minStrBlock  = 256
	minByteBlock = 4096
)

var slabPool = sync.Pool{New: func() any { return new(Slab) }}

// AcquireSlab returns a decode arena from the shared pool. Pair it with
// exactly one Release.
func AcquireSlab() *Slab {
	s := slabPool.Get().(*Slab)
	s.released = false
	return s
}

// Release returns the slab to the pool. The pair slices decoded through
// it must not be used again — the next decode overwrites their block —
// but boxed keys and values that escaped into longer-lived structures
// stay valid: the value arenas are detached, not reused.
func (s *Slab) Release() {
	if s.released {
		panic("kv: slab released twice")
	}
	s.released = true
	// Drop the pair entries' references into the detached arenas: the
	// pair block is about to be reused and must not pin them.
	clear(s.pairs[:s.np])
	s.words, s.strs, s.bts = nil, nil, nil
	s.np, s.nw, s.ns, s.nb = 0, 0, 0, 0
	slabPool.Put(s)
}

// emptyPairs keeps zero-count decodes identical to DecodePairs, which
// returns an empty, non-nil slice.
var emptyPairs = make([]Pair, 0)

// takePairs returns a zeroed, full-capacity []Pair of length n carved
// from the pair block.
func (s *Slab) takePairs(n int) []Pair {
	if n == 0 {
		return emptyPairs
	}
	if len(s.pairs)-s.np < n {
		s.pairs, s.np = make([]Pair, max(2*len(s.pairs), minPairBlock, n)), 0
	}
	out := s.pairs[s.np : s.np+n : s.np+n]
	s.np += n
	return out
}

// word returns the next free 8-byte scalar cell. The block growth lives
// in growWords so that word, and box with it, stay inlinable.
func (s *Slab) word() *uint64 {
	if s.nw == len(s.words) {
		s.growWords()
	}
	p := &s.words[s.nw]
	s.nw++
	return p
}

func (s *Slab) growWords() {
	s.words, s.nw = make([]uint64, max(2*len(s.words), minWordBlock)), 0
}

// strCell returns the next free string header cell.
func (s *Slab) strCell() *string {
	if s.ns == len(s.strs) {
		s.strs, s.ns = make([]string, max(2*len(s.strs), minStrBlock)), 0
	}
	p := &s.strs[s.ns]
	s.ns++
	return p
}

// internBytes copies src into the byte arena and returns it as a string
// aliasing arena memory.
func (s *Slab) internBytes(src []byte) string {
	if len(src) == 0 {
		return ""
	}
	if len(s.bts)-s.nb < len(src) {
		s.bts, s.nb = make([]byte, max(2*len(s.bts), minByteBlock, len(src))), 0
	}
	dst := s.bts[s.nb : s.nb+len(src)]
	copy(dst, src)
	s.nb += len(src)
	return unsafe.String(&dst[0], len(dst))
}

// Interface boxing without per-value heap allocation: an eface is a
// (type, data) pointer pair, so pointing data at an arena cell that
// already holds the value produces the same interface value the
// compiler's implicit boxing would, minus the allocation. The type
// words are captured once from ordinarily-boxed samples.
type eface struct {
	typ, data unsafe.Pointer
}

func typePtrOf(v any) unsafe.Pointer { return (*eface)(unsafe.Pointer(&v)).typ }

var (
	typBool    = typePtrOf(false)
	typInt     = typePtrOf(int(0))
	typInt32   = typePtrOf(int32(0))
	typInt64   = typePtrOf(int64(0))
	typUint64  = typePtrOf(uint64(0))
	typFloat32 = typePtrOf(float32(0))
	typFloat64 = typePtrOf(float64(0))
	typString  = typePtrOf("")
)

// boxAt builds the interface value whose type word is typ and whose
// data word points at data. data must point at memory holding a value
// of exactly that type.
func boxAt(typ, data unsafe.Pointer) (v any) {
	e := (*eface)(unsafe.Pointer(&v))
	e.typ = typ
	e.data = data
	return
}

// scalar is every type box stores in one 8-byte cell.
type scalar interface {
	bool | int | int32 | int64 | uint64 | float32 | float64
}

// box returns v as an interface value: boxed on the heap when s is nil,
// otherwise in one of s's cells. typ must be v's type word.
func box[T scalar](s *Slab, typ unsafe.Pointer, v T) any {
	if s == nil {
		return v
	}
	p := s.word()
	*(*T)(unsafe.Pointer(p)) = v
	return boxAt(typ, unsafe.Pointer(p))
}

// boxString returns src as a string value: copied to the heap when s is
// nil, otherwise interned into the byte arena and boxed in a header
// cell.
func (s *Slab) boxString(src []byte) any {
	if s == nil {
		return string(src)
	}
	p := s.strCell()
	*p = s.internBytes(src)
	return boxAt(typString, unsafe.Pointer(p))
}
