package core

import (
	"fmt"

	"mpj/internal/mpjbuf"
)

// This file bridges typed user arrays and the mpjbuf wire buffers: the
// "packing and unpacking" overhead the paper's §V-E analyses, and the
// escape its conclusion names — hand the device the application's
// memory. A contiguous primitive layout of at least mpjbuf's borrow
// threshold does not move at all: packInto borrows the user's array as
// the buffer's external region (the device transmits from it) and land
// registers the receive array as the buffer's landing zone (the device
// loads into it, and unpack finds the data in place). Below the
// threshold the same call is one memmove into the section; a derived
// datatype gathers its elements straight into the wire section (the
// paper's §IV-C copies "the first column ... to a contiguous area, which
// is used for the actual send" — here that area is the send buffer
// itself). Everything else — []bool, objects, structs, a type or count
// that does not fit, big-endian hosts — is the packed path too: one
// implementation, selected by what the message is.
//
// The ownership rule is MPI's: memory lent by packInto is read until
// the send request completes (a blocking Send returning means it is
// reusable), memory registered by land is written only while the device
// loads the matched message, before it completes the request. pack, the
// copying variant, serves the calls whose contract is "captured on
// return" (Bsend, Pack, Sendrecv_replace).

// bufferElems reports the length of a supported message buffer.
func bufferElems(buf any) (int, error) {
	switch s := buf.(type) {
	case []byte:
		return len(s), nil
	case []bool:
		return len(s), nil
	case []uint16:
		return len(s), nil
	case []int16:
		return len(s), nil
	case []int32:
		return len(s), nil
	case []int64:
		return len(s), nil
	case []float32:
		return len(s), nil
	case []float64:
		return len(s), nil
	case []any:
		return len(s), nil
	case nil:
		return 0, nil
	}
	return 0, fmt.Errorf("core: unsupported buffer type %T", buf)
}

// span validates an (offset, count) range against the buffer length.
// op is a constant verb; dt.name joins it only in the error formats, so
// the hot path never concatenates strings.
func span(dt *Datatype, offset, count, bufLen int, op string) error {
	if count < 0 || offset < 0 {
		return fmt.Errorf("core: %s %s: negative offset/count (%d, %d)", op, dt.name, offset, count)
	}
	if count == 0 {
		return nil
	}
	need := offset + (count-1)*dt.extent + dt.spanOne()
	if need > bufLen {
		return fmt.Errorf("core: %s: datatype %s needs %d elements, buffer has %d",
			op, dt.name, need, bufLen)
	}
	return nil
}

// spanOne returns the element span of a single item.
func (d *Datatype) spanOne() int {
	if d.fields != nil {
		return d.extent
	}
	max := 0
	for _, disp := range d.disps {
		if disp+1 > max {
			max = disp + 1
		}
	}
	return max
}

// baseErr reports a buffer whose element type is not dt's base type.
func baseErr(dt *Datatype, buf any) error {
	return fmt.Errorf("core: datatype %s incompatible with buffer %T", dt.name, buf)
}

// packPrim packs a primitive-typed buffer as one section: a contiguous
// layout is borrowed in place (or, when small, written with a single
// memmove), anything else is a strided gather straight into the section.
func packPrim[T mpjbuf.Elem](b *mpjbuf.Buffer, src []T, offset, count int, dt *Datatype) error {
	if dt.base != mpjbuf.TypeOf[T]() {
		return baseErr(dt, src)
	}
	if dt.IsContiguous() {
		return mpjbuf.Borrow(b, src, offset, count*dt.extent)
	}
	return mpjbuf.Gather(b, src, offset, count, dt.extent, dt.disps)
}

// landPrim registers dst[offset:offset+count*extent] as b's landing
// zone when dt lays that range out contiguously as T. A range or type
// that does not qualify registers nothing: the message then loads
// packed and unpack reports whatever is wrong with the call.
func landPrim[T mpjbuf.Elem](b *mpjbuf.Buffer, dst []T, offset, count int, dt *Datatype) {
	n := count * dt.extent
	if dt.base == mpjbuf.TypeOf[T]() && dt.IsContiguous() && offset >= 0 && n >= 0 && offset+n <= len(dst) {
		mpjbuf.Land(b, dst[offset:offset+n])
	}
}

// land is the receive-side twin of packInto: called before a receive
// is posted with b, it offers the user's array to the loader so a large
// contiguous message lands in it directly (see mpjbuf.Land). It only
// stores a slice header; whether anything lands is decided per message.
func land(b *mpjbuf.Buffer, buf any, offset, count int, dt *Datatype) {
	if dt == nil {
		return
	}
	switch s := buf.(type) {
	case []byte:
		landPrim(b, s, offset, count, dt)
	case []uint16:
		landPrim(b, s, offset, count, dt)
	case []int16:
		landPrim(b, s, offset, count, dt)
	case []int32:
		landPrim(b, s, offset, count, dt)
	case []int64:
		landPrim(b, s, offset, count, dt)
	case []float32:
		landPrim(b, s, offset, count, dt)
	case []float64:
		landPrim(b, s, offset, count, dt)
	}
}

// unpackPrim reverses packPrim.
func unpackPrim[T mpjbuf.Elem](b *mpjbuf.Buffer, dst []T, offset, count int, dt *Datatype) (int, error) {
	if dt.base != mpjbuf.TypeOf[T]() {
		return 0, baseErr(dt, dst)
	}
	if dt.IsContiguous() {
		return mpjbuf.Read(b, dst, offset, count*dt.extent)
	}
	return mpjbuf.Scatter(b, dst, offset, count, dt.extent, dt.disps)
}

// packObjects packs an object buffer. Objects are serialized one by
// one, so a derived layout just gathers the references first.
func packObjects(b *mpjbuf.Buffer, src []any, offset, count int, dt *Datatype) error {
	if dt.base != mpjbuf.ObjectType {
		return baseErr(dt, src)
	}
	if dt.IsContiguous() {
		return b.WriteObjects(src, offset, count*dt.extent)
	}
	scratch := make([]any, 0, count*len(dt.disps))
	for i := 0; i < count; i++ {
		base := offset + i*dt.extent
		for _, disp := range dt.disps {
			scratch = append(scratch, src[base+disp])
		}
	}
	return b.WriteObjects(scratch, 0, len(scratch))
}

// unpackObjects reverses packObjects.
func unpackObjects(b *mpjbuf.Buffer, dst []any, offset, count int, dt *Datatype) (int, error) {
	if dt.base != mpjbuf.ObjectType {
		return 0, baseErr(dt, dst)
	}
	if dt.IsContiguous() {
		return b.ReadObjects(dst, offset, count*dt.extent)
	}
	scratch := make([]any, count*len(dt.disps))
	n, err := b.ReadObjects(scratch, 0, len(scratch))
	if err != nil {
		return 0, err
	}
	for k := 0; k < n; k++ {
		dst[offset+k/len(dt.disps)*dt.extent+dt.disps[k%len(dt.disps)]] = scratch[k]
	}
	return n, nil
}

// pack serializes count items of dt from buf (starting at offset) into
// a fresh wire buffer that owns its bytes: buf is captured when pack
// returns, whatever packInto borrowed.
func pack(buf any, offset, count int, dt *Datatype) (*mpjbuf.Buffer, error) {
	b := mpjbuf.New(0)
	if err := packInto(b, buf, offset, count, dt); err != nil {
		return nil, err
	}
	b.Detach()
	return b, nil
}

// packInto serializes count items of dt from buf (starting at offset)
// into b, which must be fresh or Reset — the blocking paths reuse
// pooled buffers through here. A large contiguous primitive range is
// lent to b rather than copied (see packPrim): the caller keeps it
// unmodified until the message has left. A section that is copied
// sizes its own room exactly, so a pooled buffer whose backing is too
// small takes one slab of the right class from the byte store, not a
// doubling overshoot.
func packInto(b *mpjbuf.Buffer, buf any, offset, count int, dt *Datatype) error {
	if dt == nil {
		return fmt.Errorf("core: nil datatype")
	}
	n, err := bufferElems(buf)
	if err != nil {
		return err
	}
	if err := span(dt, offset, count, n, "pack"); err != nil {
		return err
	}
	if dt.fields != nil {
		s, ok := buf.([]any)
		if !ok {
			return fmt.Errorf("core: struct datatype requires []any buffer, have %T", buf)
		}
		return packStruct(b, s, offset, count, dt)
	}
	switch s := buf.(type) {
	case []byte:
		return packPrim(b, s, offset, count, dt)
	case []bool:
		return packPrim(b, s, offset, count, dt)
	case []uint16:
		return packPrim(b, s, offset, count, dt)
	case []int16:
		return packPrim(b, s, offset, count, dt)
	case []int32:
		return packPrim(b, s, offset, count, dt)
	case []int64:
		return packPrim(b, s, offset, count, dt)
	case []float32:
		return packPrim(b, s, offset, count, dt)
	case []float64:
		return packPrim(b, s, offset, count, dt)
	case []any:
		return packObjects(b, s, offset, count, dt)
	}
	// nil buffer (bufferElems rejected every other type): a zero-element
	// message packs an empty section of the base type.
	return b.WriteEmpty(dt.base)
}

// unpack deserializes a received wire buffer into count items of dt in
// buf, returning the number of base elements stored.
func unpack(b *mpjbuf.Buffer, buf any, offset, count int, dt *Datatype) (int, error) {
	if dt == nil {
		return 0, fmt.Errorf("core: nil datatype")
	}
	n, err := bufferElems(buf)
	if err != nil {
		return 0, err
	}
	if buf == nil {
		// Zero-element receive: consume and discard the section.
		if _, cnt, ok := b.PeekSection(); ok && cnt != 0 {
			return 0, fmt.Errorf("core: nil receive buffer for non-empty message (%d elements)", cnt)
		}
		return 0, nil
	}
	if err := span(dt, offset, count, n, "unpack"); err != nil {
		return 0, err
	}
	if dt.fields != nil {
		s, ok := buf.([]any)
		if !ok {
			return 0, fmt.Errorf("core: struct datatype requires []any buffer, have %T", buf)
		}
		return unpackStruct(b, s, offset, count, dt)
	}
	switch s := buf.(type) {
	case []byte:
		return unpackPrim(b, s, offset, count, dt)
	case []bool:
		return unpackPrim(b, s, offset, count, dt)
	case []uint16:
		return unpackPrim(b, s, offset, count, dt)
	case []int16:
		return unpackPrim(b, s, offset, count, dt)
	case []int32:
		return unpackPrim(b, s, offset, count, dt)
	case []int64:
		return unpackPrim(b, s, offset, count, dt)
	case []float32:
		return unpackPrim(b, s, offset, count, dt)
	case []float64:
		return unpackPrim(b, s, offset, count, dt)
	}
	return unpackObjects(b, buf.([]any), offset, count, dt)
}

// packStruct packs count items of a struct datatype from an []any
// buffer: each field block becomes a typed section.
func packStruct(b *mpjbuf.Buffer, src []any, offset, count int, dt *Datatype) error {
	for i := 0; i < count; i++ {
		base := offset + i*dt.extent
		for fi, f := range dt.fields {
			start := base + f.disp
			if err := packStructField(b, src[start:start+f.blocklen], f); err != nil {
				return fmt.Errorf("core: struct item %d field %d: %w", i, fi, err)
			}
		}
	}
	return nil
}

// fieldStack is the block length up to which a struct field's typed
// staging area lives on the stack.
const fieldStack = 32

// packField unboxes one field block into a typed staging area and
// packs it as a section.
func packField[T mpjbuf.Elem](b *mpjbuf.Buffer, vals []any) error {
	var stack [fieldStack]T
	s := stack[:0]
	if len(vals) > fieldStack {
		s = make([]T, 0, len(vals))
	}
	for _, v := range vals {
		x, ok := v.(T)
		if !ok {
			return fmt.Errorf("field value %T, want %T", v, x)
		}
		s = append(s, x)
	}
	return mpjbuf.Write(b, s, 0, len(s))
}

// unpackField reverses packField.
func unpackField[T mpjbuf.Elem](b *mpjbuf.Buffer, out []any) (int, error) {
	var stack [fieldStack]T
	s := stack[:]
	if len(out) > fieldStack {
		s = make([]T, len(out))
	}
	n, err := mpjbuf.Read(b, s, 0, len(out))
	for i := 0; i < n; i++ {
		out[i] = s[i]
	}
	return n, err
}

func packStructField(b *mpjbuf.Buffer, vals []any, f structField) error {
	switch f.typ.base {
	case mpjbuf.IntType:
		return packField[int32](b, vals)
	case mpjbuf.LongType:
		return packField[int64](b, vals)
	case mpjbuf.FloatType:
		return packField[float32](b, vals)
	case mpjbuf.DoubleType:
		return packField[float64](b, vals)
	case mpjbuf.ByteType:
		return packField[byte](b, vals)
	case mpjbuf.BooleanType:
		return packField[bool](b, vals)
	default:
		return b.WriteObjects(vals, 0, len(vals))
	}
}

// unpackStruct reverses packStruct.
func unpackStruct(b *mpjbuf.Buffer, dst []any, offset, count int, dt *Datatype) (int, error) {
	total := 0
	for i := 0; i < count; i++ {
		base := offset + i*dt.extent
		for fi, f := range dt.fields {
			start := base + f.disp
			n, err := unpackStructField(b, dst[start:start+f.blocklen], f)
			if err != nil {
				return total, fmt.Errorf("core: struct item %d field %d: %w", i, fi, err)
			}
			total += n
		}
	}
	return total, nil
}

func unpackStructField(b *mpjbuf.Buffer, out []any, f structField) (int, error) {
	switch f.typ.base {
	case mpjbuf.IntType:
		return unpackField[int32](b, out)
	case mpjbuf.LongType:
		return unpackField[int64](b, out)
	case mpjbuf.FloatType:
		return unpackField[float32](b, out)
	case mpjbuf.DoubleType:
		return unpackField[float64](b, out)
	case mpjbuf.ByteType:
		return unpackField[byte](b, out)
	case mpjbuf.BooleanType:
		return unpackField[bool](b, out)
	default:
		return b.ReadObjects(out, 0, len(out))
	}
}
