// Package mpjbuf implements the MPJ Express buffering API.
//
// A Buffer has two sections, mirroring the paper's mpjbuf design
// (Baker, Carpenter, Shafi — "An Approach to Buffer Management in Java
// HPC Messaging", ICCS 2006):
//
//   - a static section holding packed primitive data, written and read
//     as typed sections (a one-byte type tag, a big-endian element
//     count, then the elements packed little-endian);
//   - a dynamic section holding serialized objects (the Java original
//     used JDK serialization; we use encoding/gob).
//
// User messages are packed into a Buffer on the send side and unpacked
// into user arrays on the receive side.  Devices transmit the buffer's
// wire form without further copying: Segments returns the raw static and
// dynamic byte slices, the Go analogue of handing a direct ByteBuffer to
// the transport (avoiding, in the original, the JNI copy between JVM
// heap and OS memory).
//
// Element encoding is little-endian, full stop: every rank of a job is
// the same binary, so there is nothing to negotiate and no
// receiver-makes-right flag. A little-endian host packs with one
// memmove (kernel_le.go, the only file that imports unsafe), a
// big-endian one with encoding/binary (kernel.go); build tags choose.
// Static backing comes from the size-classed byte store (store.go) and
// returns to it on Reset, so large messages reuse a few slabs.
//
// A Buffer is not safe for concurrent use; each message uses its own
// Buffer, and the enclosing library serializes access per message.
package mpjbuf

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
)

// Type tags a packed section in the static part of a buffer.
type Type uint8

// Section type tags. Object data lives in the dynamic section and has no
// static tag other than ObjectType, which records only the element count.
const (
	ByteType Type = iota + 1
	BooleanType
	CharType // uint16, as in Java
	ShortType
	IntType
	LongType
	FloatType
	DoubleType
	ObjectType
)

var typeNames = map[Type]string{
	ByteType:    "byte",
	BooleanType: "boolean",
	CharType:    "char",
	ShortType:   "short",
	IntType:     "int",
	LongType:    "long",
	FloatType:   "float",
	DoubleType:  "double",
	ObjectType:  "object",
}

// String returns the Java-style name of the type tag.
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Size returns the packed size in bytes of one element, or 0 for
// ObjectType (whose encoding is variable length).
func (t Type) Size() int {
	switch t {
	case ByteType, BooleanType:
		return 1
	case CharType, ShortType:
		return 2
	case IntType, FloatType:
		return 4
	case LongType, DoubleType:
		return 8
	}
	return 0
}

type mode uint8

const (
	writing mode = iota
	reading
)

// sectionHeaderLen is one type byte plus a uint32 element count.
const sectionHeaderLen = 1 + 4

// Buffer is a message staging area with a static section for packed
// primitive elements and a dynamic section for serialized objects.
//
// The zero value is an empty buffer in write mode, ready for use.
type Buffer struct {
	static  []byte
	rpos    int // read cursor within static
	dynamic bytes.Buffer
	enc     *gob.Encoder
	dec     *gob.Decoder
	mode    mode
}

// New returns a Buffer whose static section has the given initial
// capacity in bytes. The section grows as needed; capacity is a hint.
func New(capacity int) *Buffer {
	b := &Buffer{}
	b.Grow(capacity)
	return b
}

// StaticLen reports the number of packed bytes in the static section.
func (b *Buffer) StaticLen() int { return len(b.static) }

// DynamicLen reports the number of serialized bytes in the dynamic section.
func (b *Buffer) DynamicLen() int { return b.dynamic.Len() }

// Len reports the total wire payload length in bytes (static + dynamic).
func (b *Buffer) Len() int { return len(b.static) + b.dynamic.Len() }

// Clear resets the buffer to an empty write-mode state, retaining the
// static section's capacity.
func (b *Buffer) Clear() {
	b.static = b.static[:0]
	b.rpos = 0
	b.dynamic.Reset()
	b.enc = nil
	b.dec = nil
	b.mode = writing
}

// keepCap is the largest static backing (and dynamic capacity) a Reset
// buffer holds on to. Smaller backing stays with the Buffer, so the
// small-message path never visits the store; larger backing belongs to
// the store between messages, where any Buffer, wire copy or staging
// slice of that class can reuse it.
const keepCap = 1<<15 + classSlack

// Reset prepares the buffer for reuse as if freshly allocated — the
// entry point of the send/receive paths that pool Buffers. Like Clear
// it empties both sections and returns to write mode, but static
// backing above keepCap goes back to the byte store, so a pooled
// buffer's footprint stays bounded while the slab stays in circulation.
// The caller must hold no slice obtained from Segments.
func (b *Buffer) Reset() {
	if cap(b.static) > keepCap {
		PutBytes(b.static)
		b.static = nil
	}
	if b.dynamic.Cap() > keepCap {
		b.dynamic = bytes.Buffer{}
	}
	b.Clear()
}

// Grow ensures the static section can absorb n more bytes without
// reallocating: callers pass a message-size hint up front so a large
// pack takes one slab of the right class from the store. Backing it
// outgrows goes back to the store.
func (b *Buffer) Grow(n int) {
	l := len(b.static)
	if n <= 0 || l+n <= cap(b.static) {
		return
	}
	ns := GetBytes(l + n)[:l]
	copy(ns, b.static)
	PutBytes(b.static)
	b.static = ns
}

// Commit switches the buffer from write mode to read mode. Reads start
// from the first section. Commit of an already-committed buffer rewinds
// the static read cursor but cannot rewind object decoding.
func (b *Buffer) Commit() {
	b.mode = reading
	b.rpos = 0
	b.dec = nil
}

// grow extends the static section by n bytes and returns the slice
// covering the new region. It at least doubles the capacity when it
// must reallocate, so appends stay amortised O(1) past the largest
// store class.
func (b *Buffer) grow(n int) []byte {
	l := len(b.static)
	if l+n > cap(b.static) {
		b.Grow(max(n, cap(b.static)))
	}
	b.static = b.static[:l+n]
	return b.static[l:]
}

func (b *Buffer) putHeader(t Type, count int) []byte {
	dst := b.grow(sectionHeaderLen + count*t.Size())
	dst[0] = byte(t)
	binary.BigEndian.PutUint32(dst[1:5], uint32(count))
	return dst[sectionHeaderLen:]
}

// nextHeader consumes and validates the next section header in read
// mode, returning the packed element region and count.
func (b *Buffer) nextHeader(want Type, maxCount int) ([]byte, int, error) {
	if b.mode != reading {
		// The operand string is built only on this cold path: a concat
		// in the hot path's argument list costs an allocation per read.
		return nil, 0, fmt.Errorf("mpjbuf: read %s on uncommitted buffer", want)
	}
	if b.rpos+sectionHeaderLen > len(b.static) {
		return nil, 0, fmt.Errorf("mpjbuf: read %s: buffer exhausted", want)
	}
	got := Type(b.static[b.rpos])
	if got != want {
		return nil, 0, fmt.Errorf("mpjbuf: section type mismatch: have %s, want %s", got, want)
	}
	count := int(binary.BigEndian.Uint32(b.static[b.rpos+1 : b.rpos+5]))
	if count > maxCount {
		return nil, 0, fmt.Errorf("mpjbuf: read %s: section holds %d elements, destination holds %d", want, count, maxCount)
	}
	start := b.rpos + sectionHeaderLen
	end := start + count*want.Size()
	if end > len(b.static) {
		return nil, 0, fmt.Errorf("mpjbuf: read %s: truncated section", want)
	}
	b.rpos = end
	return b.static[start:end], count, nil
}

// PeekSection reports the type and element count of the next unread
// section without consuming it. ok is false at end of buffer.
func (b *Buffer) PeekSection() (t Type, count int, ok bool) {
	if b.mode != reading || b.rpos+sectionHeaderLen > len(b.static) {
		return 0, 0, false
	}
	t = Type(b.static[b.rpos])
	count = int(binary.BigEndian.Uint32(b.static[b.rpos+1 : b.rpos+5]))
	return t, count, true
}

// ---- primitive writers ----

// Elem is the set of element types a static section can hold.
type Elem interface {
	byte | bool | uint16 | int16 | int32 | int64 | float32 | float64
}

// TypeOf returns the section tag of element type T.
func TypeOf[T Elem]() Type {
	switch any(*new(T)).(type) {
	case byte:
		return ByteType
	case bool:
		return BooleanType
	case uint16:
		return CharType
	case int16:
		return ShortType
	case int32:
		return IntType
	case int64:
		return LongType
	case float32:
		return FloatType
	}
	return DoubleType
}

// Write packs count elements of src starting at off as one section.
func Write[T Elem](b *Buffer, src []T, off, count int) error {
	return write(b, TypeOf[T](), src, off, count)
}

func write[T Elem](b *Buffer, t Type, src []T, off, count int) error {
	if err := b.checkRange(t, len(src), off, count); err != nil {
		return err
	}
	putElems(b.putHeader(t, count), src[off:off+count])
	return nil
}

// WriteEmpty packs a section of type t holding no elements: the wire
// form of a zero-count message.
func (b *Buffer) WriteEmpty(t Type) error {
	if err := b.checkRange(t, 0, 0, 0); err != nil {
		return err
	}
	b.putHeader(t, 0)
	return nil
}

// gatherChunk is the element count of the stack window the strided
// kernels stage through: the typed gather/scatter loop runs against it
// and each full window moves to or from the section in one kernel call.
const gatherChunk = 256

// Gather packs count items of src as one section, item i contributing
// the elements src[off+i*extent+d] for each d of disps in order — the
// layout of a derived datatype — without an intermediate slice.
func Gather[T Elem](b *Buffer, src []T, off, count, extent int, disps []int) error {
	t := TypeOf[T]()
	if err := b.checkRange(t, len(src), off, 0); err != nil {
		return err
	}
	dst, sz := b.putHeader(t, count*len(disps)), t.Size()
	var win [gatherChunk]T
	k := 0
	for i := 0; i < count; i++ {
		base := off + i*extent
		for _, d := range disps {
			win[k] = src[base+d]
			if k++; k == gatherChunk {
				putElems(dst, win[:])
				dst, k = dst[gatherChunk*sz:], 0
			}
		}
	}
	putElems(dst, win[:k])
	return nil
}

// WriteBytes packs count bytes from src starting at off.
func (b *Buffer) WriteBytes(src []byte, off, count int) error {
	return write(b, ByteType, src, off, count)
}

// WriteBooleans packs count booleans from src starting at off.
func (b *Buffer) WriteBooleans(src []bool, off, count int) error {
	return write(b, BooleanType, src, off, count)
}

// WriteChars packs count chars (uint16, as in Java) from src at off.
func (b *Buffer) WriteChars(src []uint16, off, count int) error {
	return write(b, CharType, src, off, count)
}

// WriteShorts packs count int16 elements from src starting at off.
func (b *Buffer) WriteShorts(src []int16, off, count int) error {
	return write(b, ShortType, src, off, count)
}

// WriteInts packs count int32 elements from src starting at off.
func (b *Buffer) WriteInts(src []int32, off, count int) error {
	return write(b, IntType, src, off, count)
}

// WriteLongs packs count int64 elements from src starting at off.
func (b *Buffer) WriteLongs(src []int64, off, count int) error {
	return write(b, LongType, src, off, count)
}

// WriteFloats packs count float32 elements from src starting at off.
func (b *Buffer) WriteFloats(src []float32, off, count int) error {
	return write(b, FloatType, src, off, count)
}

// WriteDoubles packs count float64 elements from src starting at off.
func (b *Buffer) WriteDoubles(src []float64, off, count int) error {
	return write(b, DoubleType, src, off, count)
}

// WriteObjects serializes count elements of src (starting at off) into
// the dynamic section using gob, recording an ObjectType section marker
// in the static section. src must be a slice of a gob-encodable type.
func (b *Buffer) WriteObjects(src []any, off, count int) error {
	if err := b.checkRange(ObjectType, len(src), off, count); err != nil {
		return err
	}
	b.putHeader(ObjectType, count)
	if b.enc == nil {
		b.enc = gob.NewEncoder(&b.dynamic)
	}
	for i := 0; i < count; i++ {
		v := src[off+i]
		if err := b.enc.Encode(&v); err != nil {
			return fmt.Errorf("mpjbuf: encode object %d: %w", off+i, err)
		}
	}
	return nil
}

func (b *Buffer) checkRange(t Type, n, off, count int) error {
	if b.mode != writing {
		return fmt.Errorf("mpjbuf: write %s on committed buffer", t)
	}
	if off < 0 || count < 0 || off+count > n {
		return fmt.Errorf("mpjbuf: write %s: range [%d,%d) out of bounds for slice of %d", t, off, off+count, n)
	}
	return nil
}

// ---- primitive readers ----

// nextSection validates the destination range and consumes the next
// section header, returning the packed element region and count.
func (b *Buffer) nextSection(t Type, n, off, count int) ([]byte, int, error) {
	if off < 0 || count < 0 || off+count > n {
		return nil, 0, fmt.Errorf("mpjbuf: read %s: range [%d,%d) out of bounds for slice of %d", t, off, off+count, n)
	}
	return b.nextHeader(t, count)
}

// Read unpacks the next section into dst at off. It returns the number
// of elements read, which may be less than count when the sender packed
// fewer elements.
func Read[T Elem](b *Buffer, dst []T, off, count int) (int, error) {
	return read(b, TypeOf[T](), dst, off, count)
}

func read[T Elem](b *Buffer, t Type, dst []T, off, count int) (int, error) {
	src, n, err := b.nextSection(t, len(dst), off, count)
	if err != nil {
		return 0, err
	}
	getElems(dst[off:off+n], src)
	return n, nil
}

// Scatter is the inverse of Gather: it unpacks the next section into
// up to count items of dst, element k of the section landing at
// dst[off+(k/len(disps))*extent+disps[k%len(disps)]].
func Scatter[T Elem](b *Buffer, dst []T, off, count, extent int, disps []int) (int, error) {
	t := TypeOf[T]()
	src, n, err := b.nextHeader(t, count*len(disps))
	if err != nil {
		return 0, err
	}
	sz := t.Size()
	var win [gatherChunk]T
	k, fill := 0, 0
	for i, left := 0, n; left > 0; i++ {
		base := off + i*extent
		for _, d := range disps[:min(left, len(disps))] {
			if k == fill {
				fill = min(left, gatherChunk)
				getElems(win[:fill], src)
				src, k = src[fill*sz:], 0
			}
			dst[base+d] = win[k]
			k++
			left--
		}
	}
	return n, nil
}

// ReadBytes unpacks the next byte section into dst at off. Like every
// typed reader it returns the number of elements read, which may be
// less than count when the sender packed fewer.
func (b *Buffer) ReadBytes(dst []byte, off, count int) (int, error) {
	return read(b, ByteType, dst, off, count)
}

// ReadBooleans unpacks the next boolean section into dst at off.
func (b *Buffer) ReadBooleans(dst []bool, off, count int) (int, error) {
	return read(b, BooleanType, dst, off, count)
}

// ReadChars unpacks the next char section into dst at off.
func (b *Buffer) ReadChars(dst []uint16, off, count int) (int, error) {
	return read(b, CharType, dst, off, count)
}

// ReadShorts unpacks the next short section into dst at off.
func (b *Buffer) ReadShorts(dst []int16, off, count int) (int, error) {
	return read(b, ShortType, dst, off, count)
}

// ReadInts unpacks the next int section into dst at off.
func (b *Buffer) ReadInts(dst []int32, off, count int) (int, error) {
	return read(b, IntType, dst, off, count)
}

// ReadLongs unpacks the next long section into dst at off.
func (b *Buffer) ReadLongs(dst []int64, off, count int) (int, error) {
	return read(b, LongType, dst, off, count)
}

// ReadFloats unpacks the next float section into dst at off.
func (b *Buffer) ReadFloats(dst []float32, off, count int) (int, error) {
	return read(b, FloatType, dst, off, count)
}

// ReadDoubles unpacks the next double section into dst at off.
func (b *Buffer) ReadDoubles(dst []float64, off, count int) (int, error) {
	return read(b, DoubleType, dst, off, count)
}

// ReadObjects deserializes the next object section into dst at off.
func (b *Buffer) ReadObjects(dst []any, off, count int) (int, error) {
	_, n, err := b.nextSection(ObjectType, len(dst), off, count)
	if err != nil {
		return 0, err
	}
	if b.dec == nil {
		b.dec = gob.NewDecoder(&b.dynamic)
	}
	for i := 0; i < n; i++ {
		var v any
		if err := b.dec.Decode(&v); err != nil {
			return i, fmt.Errorf("mpjbuf: decode object %d: %w", i, err)
		}
		dst[off+i] = v
	}
	return n, nil
}

// ---- wire form ----

// wireHeaderLen is two uint32 section lengths.
const wireHeaderLen = 8

// WireLen reports the length of the buffer's wire encoding.
func (b *Buffer) WireLen() int { return wireHeaderLen + b.Len() }

// Segments returns the wire encoding as contiguous segments without
// copying the section payloads: a fixed header describing the section
// lengths, the static section, and the dynamic section. This mirrors
// mx_isend's segment list and lets a device transmit static and dynamic
// parts in a single gather operation.
func (b *Buffer) Segments() [][]byte {
	hdr := make([]byte, wireHeaderLen)
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(b.static)))
	binary.BigEndian.PutUint32(hdr[4:8], uint32(b.dynamic.Len()))
	return [][]byte{hdr, b.static, b.dynamic.Bytes()}
}

// Wire returns the buffer's wire encoding as a single byte slice. It
// copies; devices that can gather should prefer Segments, and callers
// that already hold destination storage should prefer EncodeWire.
func (b *Buffer) Wire() []byte {
	out := make([]byte, b.WireLen())
	b.EncodeWire(out)
	return out
}

// EncodeWire writes the buffer's wire encoding into dst, which must be
// at least WireLen() bytes, and returns the number of bytes written.
// Unlike Wire it allocates nothing, so the destination can come from a
// pool.
func (b *Buffer) EncodeWire(dst []byte) int {
	binary.BigEndian.PutUint32(dst[0:4], uint32(len(b.static)))
	binary.BigEndian.PutUint32(dst[4:8], uint32(b.dynamic.Len()))
	n := wireHeaderLen
	n += copy(dst[n:], b.static)
	n += copy(dst[n:], b.dynamic.Bytes())
	return n
}

// LoadWireFrom reads a wire encoding of exactly wireLen bytes directly
// from r into the buffer's sections, avoiding an intermediate staging
// copy (the direct-ByteBuffer receive path); static backing the buffer
// lacks comes from the byte store. The buffer is left committed for
// reading.
func (b *Buffer) LoadWireFrom(r io.Reader, wireLen int) error {
	if wireLen < wireHeaderLen {
		return fmt.Errorf("mpjbuf: wire form too short (%d bytes)", wireLen)
	}
	var hdr [wireHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("mpjbuf: read wire header: %w", err)
	}
	sl := int(binary.BigEndian.Uint32(hdr[0:4]))
	dl := int(binary.BigEndian.Uint32(hdr[4:8]))
	if wireHeaderLen+sl+dl != wireLen {
		return fmt.Errorf("mpjbuf: wire form length mismatch: header says %d+%d, have %d payload bytes",
			sl, dl, wireLen-wireHeaderLen)
	}
	b.Clear()
	if _, err := io.ReadFull(r, b.grow(sl)); err != nil {
		return fmt.Errorf("mpjbuf: read static section: %w", err)
	}
	if dl > 0 {
		b.dynamic.Grow(dl)
		if _, err := io.CopyN(&b.dynamic, r, int64(dl)); err != nil {
			return fmt.Errorf("mpjbuf: read dynamic section: %w", err)
		}
	}
	b.Commit()
	return nil
}

// LoadWire replaces the buffer's contents with a previously produced
// wire encoding and leaves the buffer committed for reading.
func (b *Buffer) LoadWire(wire []byte) error {
	if len(wire) < wireHeaderLen {
		return fmt.Errorf("mpjbuf: wire form too short (%d bytes)", len(wire))
	}
	sl := int(binary.BigEndian.Uint32(wire[0:4]))
	dl := int(binary.BigEndian.Uint32(wire[4:8]))
	if wireHeaderLen+sl+dl != len(wire) {
		return fmt.Errorf("mpjbuf: wire form length mismatch: header says %d+%d, have %d payload bytes",
			sl, dl, len(wire)-wireHeaderLen)
	}
	b.Clear()
	copy(b.grow(sl), wire[wireHeaderLen:])
	b.dynamic.Write(wire[wireHeaderLen+sl:])
	b.Commit()
	return nil
}
