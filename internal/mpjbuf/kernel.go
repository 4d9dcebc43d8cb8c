package mpjbuf

import (
	"encoding/binary"
	"math"
)

// The portable element kernel: little-endian encoding through
// encoding/binary, one element at a time. Big-endian hosts pack and
// unpack with it (kernel_be.go); on little-endian hosts it is the
// reference the memmove kernel is tested against, and the boolean
// reader both share.

func putPortable[T Elem](dst []byte, src []T) {
	le := binary.LittleEndian
	switch s := any(src).(type) {
	case []byte:
		copy(dst, s)
	case []bool:
		for i, v := range s {
			dst[i] = 0
			if v {
				dst[i] = 1
			}
		}
	case []uint16:
		for i, v := range s {
			le.PutUint16(dst[2*i:], v)
		}
	case []int16:
		for i, v := range s {
			le.PutUint16(dst[2*i:], uint16(v))
		}
	case []int32:
		for i, v := range s {
			le.PutUint32(dst[4*i:], uint32(v))
		}
	case []int64:
		for i, v := range s {
			le.PutUint64(dst[8*i:], uint64(v))
		}
	case []float32:
		for i, v := range s {
			le.PutUint32(dst[4*i:], math.Float32bits(v))
		}
	case []float64:
		for i, v := range s {
			le.PutUint64(dst[8*i:], math.Float64bits(v))
		}
	}
}

// getPortable decodes len(dst) elements from src. Any non-zero byte
// reads back as true: a bool's memory must hold 0 or 1, so boolean
// sections are never copied in raw.
func getPortable[T Elem](dst []T, src []byte) {
	le := binary.LittleEndian
	switch d := any(dst).(type) {
	case []byte:
		copy(d, src)
	case []bool:
		for i := range d {
			d[i] = src[i] != 0
		}
	case []uint16:
		for i := range d {
			d[i] = le.Uint16(src[2*i:])
		}
	case []int16:
		for i := range d {
			d[i] = int16(le.Uint16(src[2*i:]))
		}
	case []int32:
		for i := range d {
			d[i] = int32(le.Uint32(src[4*i:]))
		}
	case []int64:
		for i := range d {
			d[i] = int64(le.Uint64(src[8*i:]))
		}
	case []float32:
		for i := range d {
			d[i] = math.Float32frombits(le.Uint32(src[4*i:]))
		}
	case []float64:
		for i := range d {
			d[i] = math.Float64frombits(le.Uint64(src[8*i:]))
		}
	}
}
