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
// wire form without further copying: AppendSegments returns the raw
// static and dynamic byte slices, the Go analogue of handing a direct
// ByteBuffer to the transport (avoiding, in the original, the JNI copy
// between JVM heap and OS memory).
//
// Element encoding is little-endian, full stop: every rank of a job is
// the same binary, so there is nothing to negotiate and no
// receiver-makes-right flag. A little-endian host's typed slice is
// therefore already its wire encoding (kernel_le.go, the only file that
// imports unsafe): small sections pack and unpack with one memmove, and
// a section of at least borrowMin bytes does not move at all — Borrow
// aliases the user's array as the buffer's external region (the wire
// form is wire-hdr ‖ static ‖ ext ‖ dynamic) and a receive whose
// destination was registered with Land is loaded straight into it, after
// which Read finds the data in place. A big-endian host has no such
// view and packs with encoding/binary (kernel.go); build tags choose.
// Static backing comes from the size-classed byte store (store.go) and
// returns to it on Reset, so packed large messages reuse a few slabs;
// the external region is user memory and never enters the store.
//
// Who may touch user memory, and when, is MPI's own rule: a borrowed
// region is read from Borrow until the send request completes, a
// landing zone is written only while a wire form is being loaded
// (between the device's match and its Complete), and Reset/Clear drop
// both references.
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
	"sync/atomic"
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
	static []byte
	// ext is the external payload region: the elements of the last
	// section headed in static, held in user memory instead of behind
	// the header — borrowed by Borrow on the send side, a prefix of land
	// on the receive side. Nil when every section lives in static.
	ext []byte
	// land is the registered landing zone, consumed by the next load.
	land    []byte
	landT   Type
	whdr    [wireHeaderLen]byte // wire header, kept here so AppendSegments allocates nothing
	rpos    int                 // read cursor within static
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

// StaticLen reports the number of packed bytes in the static section,
// the external region included.
func (b *Buffer) StaticLen() int { return len(b.static) + len(b.ext) }

// DynamicLen reports the number of serialized bytes in the dynamic section.
func (b *Buffer) DynamicLen() int { return b.dynamic.Len() }

// Len reports the total wire payload length in bytes (static + dynamic).
func (b *Buffer) Len() int { return b.StaticLen() + b.dynamic.Len() }

// Clear resets the buffer to an empty write-mode state, retaining the
// static section's capacity and dropping any borrowed region or landing
// zone.
func (b *Buffer) Clear() {
	b.static = b.static[:0]
	b.ext, b.land = nil, nil
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
// Only the buffer's own backing goes to the store: the external region
// is the user's and is merely forgotten. The caller must hold no slice
// obtained from AppendSegments.
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
// store class. A borrowed region is folded in first: the wire form
// puts ext after all of static, so only the last section may alias.
func (b *Buffer) grow(n int) []byte {
	if b.ext != nil {
		b.Detach()
	}
	l := len(b.static)
	if l+n > cap(b.static) {
		b.Grow(max(n, cap(b.static)))
	}
	b.static = b.static[:l+n]
	return b.static[l:]
}

// Detach copies a borrowed external region into the buffer's own static
// backing, ending the alias: afterwards the buffer holds no reference to
// user memory. A no-op when nothing is borrowed.
func (b *Buffer) Detach() {
	if b.ext == nil {
		return
	}
	ext := b.ext
	b.ext = nil
	moved(copy(b.grow(len(ext)), ext))
}

// putHeader appends a section header for count elements of t followed by
// room bytes of element space, which it returns.
func (b *Buffer) putHeader(t Type, count, room int) []byte {
	dst := b.grow(sectionHeaderLen + room)
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
	if b.ext != nil && start == len(b.static) {
		// The last header's elements are the external region.
		if len(b.ext) != count*want.Size() {
			return nil, 0, fmt.Errorf("mpjbuf: read %s: truncated section", want)
		}
		b.rpos = start
		return b.ext, count, nil
	}
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
	dst := b.putHeader(t, count, count*t.Size())
	putElems(dst, src[off:off+count])
	moved(len(dst))
	return nil
}

// borrowMin is the section payload size in bytes from which a
// contiguous section stays in user memory (borrowed on send, landed on
// receive) instead of moving through static. Below it the copy is
// cheaper than what aliasing costs: an extra gather entry per frame on
// the send side and a separate header read on the receive side; niodev
// stages every segment under 4 KiB into its batch buffer anyway, so
// nothing smaller could stay zero-copy. Measured once (DESIGN.md §7):
// the crossover sits below 4 KiB, so the floor is the constant.
const borrowMin = 4 << 10

// Borrow packs count elements of src starting at off as one section,
// like Write, but a section of at least borrowMin bytes is not copied:
// the buffer aliases src's memory as its external region until Reset,
// Clear, Detach or the next write. The caller must leave those elements
// unmodified for as long — for a send, until the request completes.
// Where the host offers no byte view of T (big-endian, []bool) it is
// Write.
func Borrow[T Elem](b *Buffer, src []T, off, count int) error {
	t := TypeOf[T]()
	if err := b.checkRange(t, len(src), off, count); err != nil {
		return err
	}
	v := view(src[off : off+count])
	if len(v) < borrowMin {
		return write(b, t, src, off, count)
	}
	b.putHeader(t, count, 0)
	b.ext = v
	return nil
}

// Land registers dst as the landing zone of the next wire form loaded
// into b: if that message is a single section of T holding at least
// borrowMin bytes and no more than dst does, and nothing else, the
// loader puts the elements straight into dst and the following Read
// into dst finds them in place. Every other message loads into the
// buffer's own backing as if no zone were registered. The zone is
// written only during that load; Reset and Clear forget it.
func Land[T Elem](b *Buffer, dst []T) {
	b.land, b.landT = view(dst), TypeOf[T]()
}

// WriteEmpty packs a section of type t holding no elements: the wire
// form of a zero-count message.
func (b *Buffer) WriteEmpty(t Type) error {
	if err := b.checkRange(t, 0, 0, 0); err != nil {
		return err
	}
	b.putHeader(t, 0, 0)
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
	sz := t.Size()
	dst := b.putHeader(t, count*len(disps), count*len(disps)*sz)
	moved(len(dst))
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
	b.putHeader(ObjectType, count, 0)
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
	if d := dst[off : off+n]; b.ext == nil || !sameMemory(view(d), src) {
		getElems(d, src)
		moved(len(src))
	}
	return n, nil
}

// sameMemory reports whether a and b are one region: a landed section
// read into the zone it landed in.
func sameMemory(a, b []byte) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
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
	moved(len(src))
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

// wireHeader returns the buffer's wire header, kept in the Buffer. It
// is rewritten only when stale, so forwarding one buffer to several
// destinations never writes under a transport still reading it.
func (b *Buffer) wireHeader() []byte {
	sl, dl := uint32(b.StaticLen()), uint32(b.dynamic.Len())
	h := b.whdr[:]
	if binary.BigEndian.Uint32(h[0:4]) != sl || binary.BigEndian.Uint32(h[4:8]) != dl {
		binary.BigEndian.PutUint32(h[0:4], sl)
		binary.BigEndian.PutUint32(h[4:8], dl)
	}
	return h
}

// AppendSegments appends the wire encoding to dst as contiguous
// segments without copying the section payloads — a fixed header
// describing the section lengths, the static section, the external
// region if there is one, and the dynamic section — and allocates
// nothing itself. This mirrors mx_isend's segment list and lets a device
// transmit all parts in a single gather operation. The segments alias
// the buffer (and, for the external region, user memory) until the
// message has left.
func (b *Buffer) AppendSegments(dst [][]byte) [][]byte {
	dst = append(dst, b.wireHeader(), b.static)
	if b.ext != nil {
		dst = append(dst, b.ext)
	}
	return append(dst, b.dynamic.Bytes())
}

// Segments is AppendSegments into a fresh list.
func (b *Buffer) Segments() [][]byte { return b.AppendSegments(make([][]byte, 0, 4)) }

// Wire returns the buffer's wire encoding as a single byte slice. It
// copies; devices that can gather should prefer AppendSegments, and
// callers that already hold destination storage should prefer
// EncodeWire.
func (b *Buffer) Wire() []byte {
	out := make([]byte, b.WireLen())
	b.EncodeWire(out)
	return out
}

// EncodeWire writes the buffer's wire encoding into dst, which must be
// at least WireLen() bytes, and returns the number of bytes written.
// Unlike Wire it allocates nothing, so the destination can come from a
// pool. It writes nothing to b: one buffer may be encoded for several
// destinations at once.
func (b *Buffer) EncodeWire(dst []byte) int {
	binary.BigEndian.PutUint32(dst[0:4], uint32(b.StaticLen()))
	binary.BigEndian.PutUint32(dst[4:8], uint32(b.dynamic.Len()))
	n := wireHeaderLen
	n += copy(dst[n:], b.static)
	n += copy(dst[n:], b.ext)
	n += copy(dst[n:], b.dynamic.Bytes())
	moved(n - wireHeaderLen)
	return n
}

// load is the one wire-form loader: it replaces the buffer's contents
// with a wire form whose header announced sl static and dl dynamic
// bytes, pulling them in order through fill, and leaves the buffer
// committed for reading. A registered landing zone is consumed: when the
// static part turns out to be exactly one section that fits it (see
// Land) the elements go there, otherwise — and for every message with no
// zone — static backing the buffer lacks comes from the byte store.
// copies says fill is a memmove rather than a transport read.
func (b *Buffer) load(sl, dl int, copies bool, fill func(p []byte) error) error {
	land, landT := b.land, b.landT
	b.Clear()
	rest := sl
	if land != nil && dl == 0 && sl-sectionHeaderLen >= borrowMin {
		hdr := b.grow(sectionHeaderLen)
		if err := fill(hdr); err != nil {
			return fmt.Errorf("mpjbuf: read static section: %w", err)
		}
		rest -= sectionHeaderLen
		sz := landT.Size()
		if Type(hdr[0]) == landT && rest <= len(land) && rest%sz == 0 &&
			int64(binary.BigEndian.Uint32(hdr[1:5])) == int64(rest/sz) {
			b.ext, rest = land[:rest], 0
			if err := fill(b.ext); err != nil {
				return fmt.Errorf("mpjbuf: read static section: %w", err)
			}
		}
	}
	if rest > 0 { // not through grow once landed: it would fold ext back in
		if err := fill(b.grow(rest)); err != nil {
			return fmt.Errorf("mpjbuf: read static section: %w", err)
		}
	}
	if dl > 0 {
		b.dynamic.Grow(dl)
		dyn := b.dynamic.AvailableBuffer()[:dl]
		if err := fill(dyn); err != nil {
			return fmt.Errorf("mpjbuf: read dynamic section: %w", err)
		}
		b.dynamic.Write(dyn)
	}
	if copies {
		moved(len(b.ext) + rest + dl)
	}
	b.Commit()
	return nil
}

// checkWireHeader decodes a wire header and checks it against the
// wire form's total length.
func checkWireHeader(hdr []byte, wireLen int) (sl, dl int, err error) {
	sl = int(binary.BigEndian.Uint32(hdr[0:4]))
	dl = int(binary.BigEndian.Uint32(hdr[4:8]))
	if wireHeaderLen+sl+dl != wireLen {
		return 0, 0, fmt.Errorf("mpjbuf: wire form length mismatch: header says %d+%d, have %d payload bytes",
			sl, dl, wireLen-wireHeaderLen)
	}
	return sl, dl, nil
}

// LoadWireFrom reads a wire encoding of exactly wireLen bytes directly
// from r into the buffer — into a registered landing zone when the
// message fits it (see Land), else into the buffer's own sections —
// avoiding an intermediate staging copy (the direct-ByteBuffer receive
// path). The buffer is left committed for reading.
func (b *Buffer) LoadWireFrom(r io.Reader, wireLen int) error {
	if wireLen < wireHeaderLen {
		return fmt.Errorf("mpjbuf: wire form too short (%d bytes)", wireLen)
	}
	// The header is read into the Buffer's own header field: a local
	// array would escape through r and cost an allocation per message.
	hdr := b.whdr[:]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return fmt.Errorf("mpjbuf: read wire header: %w", err)
	}
	sl, dl, err := checkWireHeader(hdr, wireLen)
	if err != nil {
		return err
	}
	return b.load(sl, dl, false, func(p []byte) error {
		_, err := io.ReadFull(r, p)
		return err
	})
}

// LoadWire replaces the buffer's contents with a previously produced
// wire encoding and leaves the buffer committed for reading.
func (b *Buffer) LoadWire(wire []byte) error {
	if len(wire) < wireHeaderLen {
		return fmt.Errorf("mpjbuf: wire form too short (%d bytes)", len(wire))
	}
	sl, dl, err := checkWireHeader(wire, len(wire))
	if err != nil {
		return err
	}
	wire = wire[wireHeaderLen:]
	return b.load(sl, dl, true, func(p []byte) error {
		wire = wire[copy(p, wire):]
		return nil
	})
}

// LoadBuffer replaces the buffer's contents with src's message, as if
// src's wire form had been encoded and loaded, in a single copy —
// shared-memory delivery from the sender's buffer straight into the
// receiver's (and its landing zone). src is only read.
func (b *Buffer) LoadBuffer(src *Buffer) error {
	parts := [...][]byte{src.static, src.ext, src.dynamic.Bytes()}
	i := 0
	return b.load(src.StaticLen(), src.dynamic.Len(), true, func(p []byte) error {
		for len(p) > 0 {
			n := copy(p, parts[i])
			p, parts[i] = p[n:], parts[i][n:]
			if len(parts[i]) == 0 {
				i++
			}
		}
		return nil
	})
}

// Probe is the package's test seam: callbacks that let a conformance
// test count what a message path did. It is not configuration — nothing
// about a message changes when one is installed.
type Probe struct {
	// Copied observes every memmove of at least borrowMin bytes the
	// package makes (element kernels, Detach, EncodeWire, LoadWire,
	// LoadBuffer) — the ones a borrowed or landed section avoids — in
	// bytes; reads from a transport are not copies.
	Copied func(n int)
	// Store observes a slab of the given capacity leaving (d = +1) or
	// re-entering (d = −1) the byte store.
	Store func(capacity, d int)
}

var probe atomic.Pointer[Probe]

// SetProbe installs p (nil removes it).
func SetProbe(p *Probe) { probe.Store(p) }

// moved reports a copy of n bytes to the probe. Small copies return at
// the inlined size check, so the small-message path pays nothing for
// the seam.
func moved(n int) {
	if n >= borrowMin {
		movedBulk(n)
	}
}

func movedBulk(n int) {
	if p := probe.Load(); p != nil && p.Copied != nil {
		p.Copied(n)
	}
}
