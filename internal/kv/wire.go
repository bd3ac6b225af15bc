package kv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"sync"
)

// Binary value encoding — the one form a record takes over a socket, in
// a DFS block or spill file, and inside an RPC. Every value is one
// uvarint type tag followed by a tag-specific payload; pair lists are a
// uvarint count followed by key/value encodings. Builtin scalars and the
// common slice shapes are handled inline; composite record types register
// a walk of their fields (see Register and Fields), which is both their
// encoder and their decoder. A value whose type has neither cannot be
// encoded: the send or write fails with an error naming the type (see
// Unencodable). Tags are assigned in registration order, which agrees
// across processes built from the same source. The transport's control
// messages are walks too, on the same Fields.

// Builtin wire tags. Custom codecs start at customTagBase.
const (
	tagNil uint64 = iota
	tagBool
	tagInt
	tagInt32
	tagInt64
	tagUint64
	tagFloat32
	tagFloat64
	tagString
	tagBytes
	tagInt32s
	tagInt64s
	tagFloat32s
	tagFloat64s
	tagPairs

	customTagBase uint64 = 32
)

// codec is a registered type's walk on buffers. Given a value v it
// appends v's encoding to buf; given none it decodes a value from buf. It
// returns the value decoded, the buffer — grown, or the input left — and
// the walk's error.
type codec func(buf []byte, v any) (any, []byte, error)

var wireReg = struct {
	sync.RWMutex
	byType map[reflect.Type]uint64
	codecs []codec
}{byType: make(map[reflect.Type]uint64)}

// Register makes walk the binary codec of record type T. It is meant for
// init functions; registering the same type twice panics.
func Register[T any](walk func(f *Fields, v *T)) {
	// One closure keeps Register small enough to inline into its caller,
	// where walk is a known function: the encoder's x and f then stay on
	// the stack, and encoding a record allocates nothing.
	register(func(buf []byte, v any) (any, []byte, error) {
		if v != nil {
			x, f := v.(T), Fields{buf: buf}
			walk(&f, &x)
			return nil, f.buf, f.err
		}
		var x T
		f := Fields{buf: buf, dec: true}
		walk(&f, &x)
		return x, f.buf, f.err
	})
}

// register adds c under the type of the value it decodes from nothing.
func register(c codec) {
	zero, _, _ := c(nil, nil)
	t := reflect.TypeOf(zero)
	wireReg.Lock()
	defer wireReg.Unlock()
	if _, dup := wireReg.byType[t]; dup {
		panic(fmt.Sprintf("kv: codec for %v registered twice", t))
	}
	wireReg.byType[t] = customTagBase + uint64(len(wireReg.codecs))
	wireReg.codecs = append(wireReg.codecs, c)
}

func lookupCodec(t reflect.Type) (uint64, codec, bool) {
	wireReg.RLock()
	defer wireReg.RUnlock()
	tag, ok := wireReg.byType[t]
	if !ok {
		return 0, nil, false
	}
	return tag, wireReg.codecs[tag-customTagBase], true
}

func codecFor(tag uint64) (codec, bool) {
	wireReg.RLock()
	defer wireReg.RUnlock()
	idx := tag - customTagBase
	if idx >= uint64(len(wireReg.codecs)) {
		return nil, false
	}
	return wireReg.codecs[idx], true
}

// AppendUvarint appends x in unsigned varint encoding.
func AppendUvarint(buf []byte, x uint64) []byte { return binary.AppendUvarint(buf, x) }

// AppendVarint appends x in zigzag varint encoding.
func AppendVarint(buf []byte, x int64) []byte { return binary.AppendVarint(buf, x) }

// Fields walks a value's fields in wire order, one method call per
// field: made by EncodeFields it appends each field to its buffer, made
// by DecodeFields it reads each field into the pointer given. A type's
// wire form is one walk, such as
//
//	func(f *kv.Fields, a *Adj) { f.Int32s(&a.Dst); f.F32s(&a.W) }
//
// which is its encoder and its decoder both, so the two cannot disagree.
// Integers are varints, floats fixed little-endian, strings and slices a
// uvarint length and their contents. A decoder checks every length
// against the bytes left before it allocates, reads an empty slice or map
// as nil, and takes only what an encoder writes (minimal varints, bools
// of 0 or 1, map keys ascending), so what decodes re-encodes to the same
// bytes. The first error sticks and Err reports it; an encoder's only
// error is a nested value with no codec (see Value).
type Fields struct {
	buf []byte // encoding: the output; decoding: the input not yet read
	dec bool
	err error
}

// EncodeFields returns a walker that appends to buf.
func EncodeFields(buf []byte) Fields { return Fields{buf: buf} }

// DecodeFields returns a walker that reads data. Strings and slices are
// copied out of it.
func DecodeFields(data []byte) Fields { return Fields{buf: data, dec: true} }

// Bytes returns an encoder's output, or the input a decoder has not read.
func (f *Fields) Bytes() []byte { return f.buf }

// Err returns the first error of the walk.
func (f *Fields) Err() error { return f.err }

// Done returns the walk's error, or one when a decoder left input unread.
func (f *Fields) Done() error {
	if f.err == nil && f.dec && len(f.buf) > 0 {
		f.err = fmt.Errorf("kv: %d bytes past the end of the value", len(f.buf))
	}
	return f.err
}

func (f *Fields) fail(err error) {
	if f.err == nil {
		f.err = err
	}
}

// uvarint reads one minimal uvarint.
func (f *Fields) uvarint() uint64 {
	if f.err != nil {
		return 0
	}
	x, n := binary.Uvarint(f.buf)
	if n <= 0 || n > 1 && f.buf[n-1] == 0 {
		f.fail(errors.New("kv: truncated or overlong varint"))
		return 0
	}
	f.buf = f.buf[n:]
	return x
}

func (f *Fields) varint() int64 {
	x := f.uvarint()
	return int64(x>>1) ^ -int64(x&1)
}

// length reads a uvarint length of elements of at least size bytes each,
// which the bytes left must be able to hold.
func (f *Fields) length(size uint64) int {
	l := f.uvarint()
	if f.err == nil && l > uint64(len(f.buf))/size {
		f.fail(fmt.Errorf("kv: length %d exceeds the %d bytes left", l, len(f.buf)))
		return 0
	}
	return int(l)
}

// next reads the next n bytes, or fails when fewer are left.
func (f *Fields) next(n int) []byte {
	if f.err != nil || len(f.buf) < n {
		f.fail(errors.New("kv: truncated value"))
		return nil
	}
	b := f.buf[:n]
	f.buf = f.buf[n:]
	return b
}

// Varint walks each of xs as a zigzag varint.
func (f *Fields) Varint(xs ...*int64) {
	for _, x := range xs {
		if f.dec {
			*x = f.varint()
		} else {
			f.buf = binary.AppendVarint(f.buf, *x)
		}
	}
}

// Int walks each of xs as a zigzag varint.
func (f *Fields) Int(xs ...*int) {
	for _, x := range xs {
		if f.dec {
			*x = int(f.varint())
		} else {
			f.buf = binary.AppendVarint(f.buf, int64(*x))
		}
	}
}

// Int32 walks an int32 as a zigzag varint.
func (f *Fields) Int32(x *int32) {
	if !f.dec {
		f.buf = binary.AppendVarint(f.buf, int64(*x))
		return
	}
	v := f.varint()
	if v != int64(int32(v)) {
		f.fail(fmt.Errorf("kv: int32 %d out of range", v))
	}
	*x = int32(v)
}

// Count walks a non-negative int no sender makes past MaxInt32 as a
// uvarint.
func (f *Fields) Count(x *int) {
	if !f.dec {
		f.buf = binary.AppendUvarint(f.buf, uint64(*x))
		return
	}
	v := f.uvarint()
	if v > math.MaxInt32 {
		f.fail(fmt.Errorf("kv: count %d out of range", v))
	}
	*x = int(v)
}

// Uint32 walks a uint32 as 4 little-endian bytes.
func (f *Fields) Uint32(x *uint32) {
	if !f.dec {
		f.buf = binary.LittleEndian.AppendUint32(f.buf, *x)
	} else if b := f.next(4); b != nil {
		*x = binary.LittleEndian.Uint32(b)
	}
}

// Byte walks one byte.
func (f *Fields) Byte(x *byte) {
	if !f.dec {
		f.buf = append(f.buf, *x)
	} else if b := f.next(1); b != nil {
		*x = b[0]
	}
}

// Bool walks a bool as one byte, 0 or 1.
func (f *Fields) Bool(x *bool) {
	if !f.dec {
		b := byte(0)
		if *x {
			b = 1
		}
		f.buf = append(f.buf, b)
	} else if b := f.next(1); b != nil {
		if b[0] > 1 {
			f.fail(fmt.Errorf("kv: bool byte %d", b[0]))
		}
		*x = b[0] == 1
	}
}

// F64 walks a float64 as 8 little-endian bytes.
func (f *Fields) F64(x *float64) {
	if !f.dec {
		f.buf = binary.LittleEndian.AppendUint64(f.buf, math.Float64bits(*x))
	} else if b := f.next(8); b != nil {
		*x = math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
}

// rawBytes reads a uvarint length and that many bytes, uncopied.
func (f *Fields) rawBytes() []byte { return f.next(f.length(1)) }

// String walks each of xs as a uvarint length and the string's bytes.
func (f *Fields) String(xs ...*string) {
	for _, x := range xs {
		if !f.dec {
			f.buf = append(binary.AppendUvarint(f.buf, uint64(len(*x))), *x...)
		} else if b := f.rawBytes(); f.err == nil {
			*x = string(b)
		}
	}
}

// Strings walks a uvarint length and each string.
func (f *Fields) Strings(xs *[]string) { Slice(f, xs, func(f *Fields, s *string) { f.String(s) }) }

// ByteSlice walks a uvarint length and the bytes.
func (f *Fields) ByteSlice(x *[]byte) {
	if !f.dec {
		f.buf = append(binary.AppendUvarint(f.buf, uint64(len(*x))), *x...)
	} else if b := f.rawBytes(); f.err == nil {
		*x = nil
		if len(b) > 0 {
			*x = bytes.Clone(b)
		}
	}
}

// Int32s walks a uvarint length and varint elements.
func (f *Fields) Int32s(xs *[]int32) {
	if !f.dec {
		f.buf = binary.AppendUvarint(f.buf, uint64(len(*xs)))
		for _, x := range *xs {
			f.buf = binary.AppendVarint(f.buf, int64(x))
		}
		return
	}
	out := makeSlice[int32](f, 1)
	for i := range out {
		f.Int32(&out[i])
	}
	*xs = out
}

// Int64s walks a uvarint length and varint elements.
func (f *Fields) Int64s(xs *[]int64) {
	for s, i := Elems(f, xs), 0; i < len(s); i++ {
		f.Varint(&s[i])
	}
}

// F32s walks a uvarint length and 4-byte elements.
func (f *Fields) F32s(xs *[]float32) {
	if !f.dec {
		f.buf = binary.AppendUvarint(f.buf, uint64(len(*xs)))
		for _, x := range *xs {
			f.buf = binary.LittleEndian.AppendUint32(f.buf, math.Float32bits(x))
		}
		return
	}
	out := makeSlice[float32](f, 4)
	for i, b := 0, f.next(4*len(out)); i < len(out); i++ {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	*xs = out
}

// F64s walks a uvarint length and 8-byte elements.
func (f *Fields) F64s(xs *[]float64) {
	if !f.dec {
		f.buf = binary.AppendUvarint(f.buf, uint64(len(*xs)))
		for _, x := range *xs {
			f.buf = binary.LittleEndian.AppendUint64(f.buf, math.Float64bits(x))
		}
		return
	}
	out := makeSlice[float64](f, 8)
	for i, b := 0, f.next(8*len(out)); i < len(out); i++ {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	*xs = out
}

// Slice walks a uvarint length and then each element of *xs with walk.
// A decoder makes no more elements than there are bytes left. Its call
// of walk escapes the walker, which then costs the encoder an
// allocation; a record codec walks its elements itself (see Elems).
func Slice[T any](f *Fields, xs *[]T, walk func(f *Fields, v *T)) {
	s := Elems(f, xs)
	for i := range s {
		walk(f, &s[i])
	}
}

// Elems walks the uvarint length of *xs and returns the slice whose
// elements the caller walks next: *xs when encoding, a slice of the
// length read — no more elements than there are bytes left, nil when it
// is zero — stored in *xs when decoding.
func Elems[T any](f *Fields, xs *[]T) []T {
	if f.dec {
		*xs = makeSlice[T](f, 1)
	} else {
		f.buf = binary.AppendUvarint(f.buf, uint64(len(*xs)))
	}
	return *xs
}

// makeSlice reads a length of elements of at least size bytes and makes
// the slice: nil when it is empty or refused. A field that fails to
// decode may be left partly decoded; the walk's error says so.
func makeSlice[T any](f *Fields, size uint64) []T {
	if l := f.length(size); l > 0 {
		return make([]T, l)
	}
	return nil
}

// StringMap walks a uvarint count and each key and value, keys
// ascending.
func (f *Fields) StringMap(m *map[string]string) {
	if !f.dec {
		f.buf = binary.AppendUvarint(f.buf, uint64(len(*m)))
		for _, k := range slices.Sorted(maps.Keys(*m)) {
			v := (*m)[k]
			f.String(&k, &v)
		}
		return
	}
	l := f.length(2)
	var out map[string]string
	if l > 0 {
		out = make(map[string]string, l)
	}
	var prev string
	for i := 0; i < l && f.err == nil; i++ {
		var k, v string
		if f.String(&k, &v); i > 0 && k <= prev {
			f.fail(errors.New("kv: map keys out of order"))
		}
		out[k], prev = v, k
	}
	*m = out
}

// Value walks a value in its tagged encoding (AppendValue). An encoder
// fails, wrapping ErrNoCodec, when the value's type has no codec.
func (f *Fields) Value(x *any) {
	if !f.dec {
		var ok bool
		if f.buf, ok = AppendValue(f.buf, *x); !ok {
			f.fail(fmt.Errorf("%w for %T", ErrNoCodec, *x))
		}
		return
	}
	if f.err == nil {
		v, n, err := decodeValue(f.buf, nil)
		if err != nil {
			f.fail(err)
			return
		}
		*x, f.buf = v, f.buf[n:]
	}
}

// Pairs walks a pair list in its AppendPairs encoding. An encoder fails,
// wrapping ErrNoCodec, when a record has no codec.
func (f *Fields) Pairs(ps *[]Pair) {
	if !f.dec {
		var ok bool
		if f.buf, ok = AppendPairs(f.buf, *ps); !ok {
			f.fail(Unencodable(*ps))
		}
		return
	}
	if f.err == nil {
		out, n, err := DecodePairs(f.buf)
		if err != nil {
			f.fail(err)
			return
		}
		*ps, f.buf = out, f.buf[n:]
	}
}

// sliceLen reads a slice's uvarint length and checks that the bytes left
// can hold that many elements of at least size bytes each, so a hostile
// length fails here instead of in make.
func sliceLen(data []byte, size uint64) (int, int, error) {
	l, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, 0, errors.New("kv: truncated uvarint")
	}
	if l > uint64(len(data)-n)/size {
		return 0, 0, fmt.Errorf("kv: slice length %d exceeds frame", l)
	}
	return int(l), n, nil
}

// AppendValue appends the tagged binary encoding of v. ok=false means
// v's dynamic type (or a type nested inside it) has no codec, so v
// cannot be encoded; buf is returned truncated to its original length in
// that case.
func AppendValue(buf []byte, v any) ([]byte, bool) {
	switch x := v.(type) {
	case nil:
		return append(buf, byte(tagNil)), true
	case bool:
		b := byte(0)
		if x {
			b = 1
		}
		return append(buf, byte(tagBool), b), true
	case int:
		return binary.AppendVarint(append(buf, byte(tagInt)), int64(x)), true
	case int32:
		return binary.AppendVarint(append(buf, byte(tagInt32)), int64(x)), true
	case int64:
		return binary.AppendVarint(append(buf, byte(tagInt64)), x), true
	case uint64:
		return binary.AppendUvarint(append(buf, byte(tagUint64)), x), true
	case float32:
		return binary.LittleEndian.AppendUint32(append(buf, byte(tagFloat32)), math.Float32bits(x)), true
	case float64:
		return binary.LittleEndian.AppendUint64(append(buf, byte(tagFloat64)), math.Float64bits(x)), true
	case string:
		buf = binary.AppendUvarint(append(buf, byte(tagString)), uint64(len(x)))
		return append(buf, x...), true
	case []byte:
		buf = binary.AppendUvarint(append(buf, byte(tagBytes)), uint64(len(x)))
		return append(buf, x...), true
	case []int32:
		f := EncodeFields(append(buf, byte(tagInt32s)))
		f.Int32s(&x)
		return f.buf, true
	case []int64:
		f := EncodeFields(append(buf, byte(tagInt64s)))
		f.Int64s(&x)
		return f.buf, true
	case []float32:
		f := EncodeFields(append(buf, byte(tagFloat32s)))
		f.F32s(&x)
		return f.buf, true
	case []float64:
		f := EncodeFields(append(buf, byte(tagFloat64s)))
		f.F64s(&x)
		return f.buf, true
	case []Pair:
		start := len(buf)
		buf, ok := AppendPairs(append(buf, byte(tagPairs)), x)
		if !ok {
			return buf[:start], false
		}
		return buf, true
	default:
		tag, c, ok := lookupCodec(reflect.TypeOf(v))
		if !ok {
			return buf, false
		}
		_, out, err := c(binary.AppendUvarint(buf, tag), v)
		if err != nil {
			return out[:len(buf)], false
		}
		return out, true
	}
}

// DecodeValue reads one tagged value onto the heap, returning it and the
// bytes consumed.
func DecodeValue(data []byte) (any, int, error) { return decodeValue(data, nil) }

// decodeValue is the one reader of a tagged value. With a nil slab every
// value is boxed on the heap; with a slab, scalars are boxed into its
// cells and strings interned into its byte arena, so a steady-state
// decode allocates nothing for them. Byte and slice shapes and custom
// codecs allocate either way. What it returns outlives the slab (see
// Slab.Release).
func decodeValue(data []byte, s *Slab) (any, int, error) {
	f := DecodeFields(data)
	v := f.value(s)
	if f.err != nil {
		return nil, 0, f.err
	}
	return v, len(data) - len(f.buf), nil
}

// value reads one tagged value (see decodeValue).
func (f *Fields) value(s *Slab) any {
	switch tag := f.uvarint(); tag {
	case tagNil:
		return nil
	case tagBool:
		var x bool
		f.Bool(&x)
		return box(s, typBool, x)
	case tagInt:
		return box(s, typInt, int(f.varint()))
	case tagInt32:
		var x int32
		f.Int32(&x)
		return box(s, typInt32, x)
	case tagInt64:
		return box(s, typInt64, f.varint())
	case tagUint64:
		return box(s, typUint64, f.uvarint())
	case tagFloat32:
		var x uint32
		f.Uint32(&x)
		return box(s, typFloat32, math.Float32frombits(x))
	case tagFloat64:
		var x float64
		f.F64(&x)
		return box(s, typFloat64, x)
	case tagString:
		return s.boxString(f.rawBytes())
	case tagBytes:
		return slices.Clone(f.rawBytes())
	case tagInt32s:
		return walked(f, (*Fields).Int32s)
	case tagInt64s:
		return walked(f, (*Fields).Int64s)
	case tagFloat32s:
		return walked(f, (*Fields).F32s)
	case tagFloat64s:
		return walked(f, (*Fields).F64s)
	case tagPairs:
		if f.err != nil {
			return nil
		}
		ps, n, err := decodePairs(f.buf, s, false)
		if err != nil {
			f.fail(err)
			return nil
		}
		f.buf = f.buf[n:]
		return ps
	default:
		c, ok := codecFor(tag)
		if !ok {
			f.fail(fmt.Errorf("kv: unknown wire tag %d", tag))
			return nil
		}
		v, rest, err := c(f.buf, nil)
		if err != nil {
			f.fail(err)
			return nil
		}
		f.buf = rest
		return v
	}
}

// walked decodes one field of type T with walk and returns it boxed.
func walked[T any](f *Fields, walk func(*Fields, *T)) any {
	var x T
	walk(f, &x)
	return x
}

// AppendPairs appends the binary encoding of ps: a uvarint count and
// each pair's key/value encodings. ok=false means some pair carries a
// type with no codec; buf is truncated back to its original length and
// Unencodable names the type.
func AppendPairs(buf []byte, ps []Pair) ([]byte, bool) {
	start := len(buf)
	buf = binary.AppendUvarint(buf, uint64(len(ps)))
	for _, p := range ps {
		var ok bool
		if buf, ok = AppendValue(buf, p.Key); !ok {
			return buf[:start], false
		}
		if buf, ok = AppendValue(buf, p.Value); !ok {
			return buf[:start], false
		}
	}
	return buf, true
}

// ErrNoCodec marks a record that cannot be encoded because its type has
// no codec (see Unencodable).
var ErrNoCodec = errors.New("kv: no wire codec")

// Unencodable names the dynamic type of the first key or value in ps
// that AppendValue refuses, in an error wrapping ErrNoCodec. It returns
// nil when every record encodes. Callers use it to explain an
// AppendPairs that returned ok=false.
func Unencodable(ps []Pair) error {
	var scratch []byte
	for _, p := range ps {
		for _, v := range [2]any{p.Key, p.Value} {
			var ok bool
			if scratch, ok = AppendValue(scratch[:0], v); !ok {
				return fmt.Errorf("%w for %T", ErrNoCodec, v)
			}
		}
	}
	return nil
}

// DecodePairs reads an AppendPairs encoding back onto the heap,
// returning the pairs and the bytes consumed.
func DecodePairs(data []byte) ([]Pair, int, error) { return decodePairs(data, nil, true) }

// DecodePairsSlab reads an AppendPairs encoding into s: the pair list
// comes from the slab's pooled block and the boxed keys and values from
// its arenas, so a decode that reuses a released slab allocates nothing
// in steady state. data is not retained — string payloads are copied
// into the arena. The pair list follows s's release rule (see Slab).
func DecodePairsSlab(data []byte, s *Slab) ([]Pair, int, error) { return decodePairs(data, s, true) }

// decodePairs is the one pair-list loop. Only a top-level list decoded
// into a slab takes the pooled pair block: a nested list is a value, and
// values outlive the slab, so its backing comes from the heap.
func decodePairs(data []byte, s *Slab, top bool) ([]Pair, int, error) {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, 0, errors.New("kv: truncated pair count")
	}
	if count > uint64(len(data)) {
		// Each encoded pair takes at least two bytes; a count beyond the
		// remaining length is corruption, not a huge allocation request.
		return nil, 0, fmt.Errorf("kv: pair count %d exceeds frame", count)
	}
	var ps []Pair
	if top && s != nil {
		ps = s.takePairs(int(count))
	} else {
		ps = make([]Pair, count)
	}
	for i := range ps {
		k, m, err := decodeValue(data[n:], s)
		if err != nil {
			return nil, 0, err
		}
		n += m
		v, m, err := decodeValue(data[n:], s)
		if err != nil {
			return nil, 0, err
		}
		n += m
		ps[i] = Pair{Key: k, Value: v}
	}
	return ps, n, nil
}
