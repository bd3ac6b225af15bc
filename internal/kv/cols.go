package kv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// Column records: the form every iterative job's records take between
// the user map and the user reduce (DESIGN §5, "One loop source"). A
// batch is two parallel columns: the int64 keys, and the values — one
// fixed-width Scalar per key for a typed job, so a record costs 16 bytes
// and no interface box, or the boxed values of any other job.

// Scalar is the value type of a typed column batch, which AppendCols
// encodes as a column of its own.
type Scalar interface{ float64 | int64 }

// Cols is a batch of int64-keyed records: Keys[i] is the key of Vals[i].
type Cols[V any] struct {
	Keys []int64
	Vals []V
}

// NewCols returns an empty batch with room for n records.
func NewCols[V any](n int) *Cols[V] {
	return &Cols[V]{Keys: make([]int64, 0, n), Vals: make([]V, 0, n)}
}

// Len is the number of records in c: its values, which a batch decoded
// by DecodeVals holds without their keys.
func (c *Cols[V]) Len() int { return len(c.Vals) }

// Cap is the number of records c holds without growing.
func (c *Cols[V]) Cap() int { return min(cap(c.Keys), cap(c.Vals)) }

// Append adds one record.
func (c *Cols[V]) Append(k int64, v V) {
	c.Keys = append(c.Keys, k)
	c.Vals = append(c.Vals, v)
}

// AppendRange adds records [lo, hi) of src.
func (c *Cols[V]) AppendRange(src *Cols[V], lo, hi int) {
	c.Keys = append(c.Keys, src.Keys[lo:hi]...)
	c.Vals = append(c.Vals, src.Vals[lo:hi]...)
}

// Box appends c's records to dst as pairs, each key an int64 and each
// value a V: the form the DFS takes.
func (c *Cols[V]) Box(dst []Pair) []Pair {
	dst = slices.Grow(dst, len(c.Keys))
	for i, k := range c.Keys {
		dst = append(dst, Pair{Key: k, Value: c.Vals[i]})
	}
	return dst
}

// Unbox appends pairs whose keys are int64 and whose values are V. A
// pair of any other types fails it, and c is left as it was.
func (c *Cols[V]) Unbox(ps []Pair) error {
	base := len(c.Keys)
	c.Keys = slices.Grow(c.Keys, len(ps))
	c.Vals = slices.Grow(c.Vals, len(ps))
	for _, p := range ps {
		k, kok := p.Key.(int64)
		v, vok := p.Value.(V)
		if !kok || !vok {
			c.Keys, c.Vals = c.Keys[:base], c.Vals[:base]
			return fmt.Errorf("kv: record (%T, %T) in a column batch of (int64, %T)", p.Key, p.Value, v)
		}
		c.Append(k, v)
	}
	return nil
}

// Reset empties c and keeps its capacity. Boxed values are cleared, so a
// kept batch pins none of them.
func (c *Cols[V]) Reset() {
	clear(c.Vals)
	c.Keys = c.Keys[:0]
	c.Vals = c.Vals[:0]
}

// colPools hold decode batches: float64, int64 and boxed values.
var colPools [3]sync.Pool

func colPool[V any]() *sync.Pool {
	switch any((*Cols[V])(nil)).(type) {
	case *Cols[float64]:
		return &colPools[0]
	case *Cols[int64]:
		return &colPools[1]
	}
	return &colPools[2]
}

// isFloat reports whether V is float64.
func isFloat[V Scalar]() bool {
	var half V = 1
	return half/2 != 0
}

// AcquireCols returns an empty batch from the pool of V's batches. Pair
// it with exactly one Release.
func AcquireCols[V any]() *Cols[V] {
	if c, ok := colPool[V]().Get().(*Cols[V]); ok {
		return c
	}
	return new(Cols[V])
}

// Release empties c and returns it to the pool; c must not be used
// afterwards.
func (c *Cols[V]) Release() {
	c.Reset()
	colPool[V]().Put(c)
}

// PartitionInt64 is Ops.Partition for an unboxed int64 key: the same
// hash, so a record lands on the partition its boxed key would.
func PartitionInt64(k int64, n int) int {
	return int(mix64(uint64(k)) % uint64(n))
}

// AppendCols appends c's column encoding: a uvarint record count and,
// when there are records, the key column and then the value column. An
// integer column — the keys, and int64 values — is its smallest element
// as a zigzag varint, one width byte w (the fewest bytes, at least 1,
// that hold the largest element minus the smallest), then every
// element's offset from the smallest in w little-endian bytes. Offsets
// wrap in uint64, so negative keys and spans past 2^63 are exact. A
// float64 value is 8 fixed little-endian bytes.
func AppendCols[V Scalar](buf []byte, c *Cols[V]) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(c.Keys)))
	if len(c.Keys) == 0 {
		return buf
	}
	return appendValCol(appendIntCol(buf, c.Keys), c.Vals)
}

// AppendVals appends vals alone, as a batch whose keys the receiver
// already holds: a uvarint count and, when there are values, the value
// column AppendCols writes.
func AppendVals[V Scalar](buf []byte, vals []V) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vals)))
	if len(vals) == 0 {
		return buf
	}
	return appendValCol(buf, vals)
}

// appendValCol appends vals, which is not empty, as a value column.
func appendValCol[V Scalar](buf []byte, vals []V) []byte {
	if !isFloat[V]() {
		return appendIntCol(buf, *int64Vals(&vals))
	}
	n := len(buf)
	buf = slices.Grow(buf, 8*len(vals))[:n+8*len(vals)]
	out := buf[n:]
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(float64(v)))
	}
	return buf
}

// int64Vals returns vals as the []int64 it is when V is int64; a pointer
// converts to an interface without allocating.
func int64Vals[V Scalar](vals *[]V) *[]int64 { return any(vals).(*[]int64) }

// appendIntCol appends xs, which is not empty, as an integer column.
func appendIntCol(buf []byte, xs []int64) []byte {
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	w := max(1, (bits.Len64(uint64(hi-lo))+7)/8)
	buf = binary.AppendVarint(buf, lo)
	buf = append(buf, byte(w))
	// Every offset is stored as a whole 8-byte word whose high bytes are
	// zero and overwritten by the next offset; 8 bytes of spare capacity
	// take the last word's, and the returned slice leaves them out.
	n := len(buf)
	size := w * len(xs)
	buf = slices.Grow(buf, size+8)
	out := buf[n : n+size+8]
	for i, x := range xs {
		binary.LittleEndian.PutUint64(out[i*w:], uint64(x-lo))
	}
	return buf[:n+size]
}

// minValBytes is the fewest bytes a value of V takes in a value column: an
// int64 offset is at least one byte, a float64 always 8.
func minValBytes[V Scalar]() int {
	if isFloat[V]() {
		return 8
	}
	return 1
}

// DecodeCols appends the records of an AppendCols encoding to dst and
// returns the bytes it consumed. Both columns' headers and the bytes
// their records need are checked before anything grows, so a hostile
// count or width fails instead of allocating, and a failed decode leaves
// dst as it was: dst grows by at most len(data)/2 records.
func DecodeCols[V Scalar](data []byte, dst *Cols[V]) (int, error) {
	minVal := minValBytes[V]()
	l, n, err := sliceLen(data, uint64(1+minVal))
	if err != nil {
		return 0, fmt.Errorf("kv: column count: %w", err)
	}
	if l == 0 {
		return n, nil
	}
	kbase, kw, m, err := intColHead(data[n:])
	if err != nil {
		return 0, fmt.Errorf("kv: key column: %w", err)
	}
	n += m
	if l*(kw+minVal) > len(data)-n {
		return 0, fmt.Errorf("kv: %d records of %d-byte keys exceed the frame", l, kw)
	}
	keyAt := n
	vc, err := valColHead[V](data[n+l*kw:], l)
	if err != nil {
		return 0, err
	}
	base := len(dst.Keys)
	dst.Keys = slices.Grow(dst.Keys, l)[:base+l]
	readIntCol(dst.Keys[base:], data[keyAt:], kbase, kw)
	return n + l*kw + readValCol(vc, dst, data[n+l*kw:], l), nil
}

// DecodeVals appends the values of an AppendVals encoding to dst.Vals,
// leaving dst.Keys alone, and returns the bytes it consumed. As in
// DecodeCols, nothing grows before the count and the column's header are
// checked against the bytes there: dst.Vals grows by at most len(data)
// values, and by len(data)/8 for float64.
func DecodeVals[V Scalar](data []byte, dst *Cols[V]) (int, error) {
	l, n, err := sliceLen(data, uint64(minValBytes[V]()))
	if err != nil {
		return 0, fmt.Errorf("kv: value count: %w", err)
	}
	if l == 0 {
		return n, nil
	}
	vc, err := valColHead[V](data[n:], l)
	if err != nil {
		return 0, err
	}
	return n + readValCol(vc, dst, data[n:], l), nil
}

// AppendBoxedCols is AppendCols for boxed values: the count and the key
// column as AppendCols writes them, then each value's AppendValue
// encoding. ok=false means a value has no codec: buf is truncated back to
// its original length, and Unencodable names the type.
func AppendBoxedCols(buf []byte, c *Cols[any]) ([]byte, bool) {
	return appendBoxedVals(AppendVals(buf, c.Keys), c.Vals, len(buf))
}

// AppendBoxedVals is AppendVals for boxed values.
func AppendBoxedVals(buf []byte, vals []any) ([]byte, bool) {
	return appendBoxedVals(binary.AppendUvarint(buf, uint64(len(vals))), vals, len(buf))
}

func appendBoxedVals(buf []byte, vals []any, start int) ([]byte, bool) {
	for _, v := range vals {
		var ok bool
		if buf, ok = AppendValue(buf, v); !ok {
			return buf[:start], false
		}
	}
	return buf, true
}

// DecodeBoxedCols is DecodeCols for boxed values, each read onto the heap
// by DecodeValue. The count and the key column are read as DecodeVals
// reads an int64 value column, the bytes a value needs — at least one —
// are checked before the values grow, and a failed decode leaves dst as
// it was.
func DecodeBoxedCols(data []byte, dst *Cols[any]) (int, error) {
	keys := Cols[int64]{Vals: dst.Keys}
	n, err := DecodeVals(data, &keys)
	if err != nil {
		return 0, err
	}
	m, err := decodeBoxedVals(data[n:], dst, len(keys.Vals)-len(dst.Keys))
	if err != nil {
		return 0, err
	}
	dst.Keys = keys.Vals
	return n + m, nil
}

// DecodeBoxedVals is DecodeVals for boxed values.
func DecodeBoxedVals(data []byte, dst *Cols[any]) (int, error) {
	l, n, err := sliceLen(data, 1)
	if err != nil {
		return 0, fmt.Errorf("kv: value count: %w", err)
	}
	m, err := decodeBoxedVals(data[n:], dst, l)
	if err != nil {
		return 0, err
	}
	return n + m, nil
}

// decodeBoxedVals appends the l values at the head of data to dst.Vals,
// or none when one fails to decode, and returns the bytes they took.
func decodeBoxedVals(data []byte, dst *Cols[any], l int) (int, error) {
	if l > len(data) {
		return 0, fmt.Errorf("kv: %d values exceed the frame", l)
	}
	base, n := len(dst.Vals), 0
	dst.Vals = slices.Grow(dst.Vals, l)
	for range l {
		v, m, err := DecodeValue(data[n:])
		if err != nil {
			clear(dst.Vals[base:])
			dst.Vals = dst.Vals[:base]
			return 0, err
		}
		dst.Vals, n = append(dst.Vals, v), n+m
	}
	return n, nil
}

// valCol is the head of a value column of l records: where its values
// start, their width, and (int64 values) their base.
type valCol struct {
	at, w int
	base  uint64
}

// valColHead reads the head of a value column of l records at the start
// of data and checks that its values are all there.
func valColHead[V Scalar](data []byte, l int) (valCol, error) {
	if isFloat[V]() {
		if l*8 > len(data) {
			return valCol{}, fmt.Errorf("kv: %d float64 values exceed the frame", l)
		}
		return valCol{w: 8}, nil
	}
	base, w, at, err := intColHead(data)
	if err != nil {
		return valCol{}, fmt.Errorf("kv: value column: %w", err)
	}
	if l*w > len(data)-at {
		return valCol{}, fmt.Errorf("kv: %d records of %d-byte values exceed the frame", l, w)
	}
	return valCol{at: at, w: w, base: base}, nil
}

// readValCol appends the l values of the column vc heads, at the start
// of data, to dst.Vals and returns the bytes the column took.
func readValCol[V Scalar](vc valCol, dst *Cols[V], data []byte, l int) int {
	base := len(dst.Vals)
	dst.Vals = slices.Grow(dst.Vals, l)[:base+l]
	if !isFloat[V]() {
		readIntCol((*int64Vals(&dst.Vals))[base:], data[vc.at:], vc.base, vc.w)
		return vc.at + l*vc.w
	}
	vals, src := dst.Vals[base:], data[:8*l]
	for i := range vals {
		vals[i] = V(math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:])))
	}
	return 8 * l
}

// intColHead reads an integer column's smallest element and width.
func intColHead(data []byte) (base uint64, w, n int, err error) {
	b, n := binary.Varint(data)
	if n <= 0 {
		return 0, 0, 0, errors.New("kv: truncated column base")
	}
	if n == len(data) || data[n] < 1 || data[n] > 8 {
		return 0, 0, 0, fmt.Errorf("kv: column width missing or outside 1-8")
	}
	return uint64(b), int(data[n]), n + 1, nil
}

// readIntCol fills dst from the w-byte offsets at the head of src, which
// holds at least w*len(dst) bytes: a masked 8-byte load while one fits
// in src, then byte by byte for the last few. At w = 8 the shift is 64,
// which gives 0 for a uint64, so the mask is all ones.
func readIntCol(dst []int64, src []byte, base uint64, w int) {
	le := binary.LittleEndian
	mask := uint64(1)<<(8*w) - 1
	i := 0
	for ; i < len(dst) && i*w+8 <= len(src); i++ {
		dst[i] = int64(base + le.Uint64(src[i*w:])&mask)
	}
	for ; i < len(dst); i++ {
		var x uint64
		for j := w - 1; j >= 0; j-- {
			x = x<<8 | uint64(src[i*w+j])
		}
		dst[i] = int64(base + x)
	}
}
