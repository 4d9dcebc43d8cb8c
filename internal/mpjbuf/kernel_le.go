//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package mpjbuf

import "unsafe"

// The native element kernel for little-endian hosts: a typed slice's
// memory is already its wire encoding, so packing and unpacking are one
// memmove each.

// raw views s as its in-memory bytes.
func raw[T Elem](s []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(*new(T))))
}

// view returns s's memory as its wire encoding, for a buffer to alias
// instead of copying. Booleans have none: a bool must hold 0 or 1, so
// their sections always pass through getPortable.
func view[T Elem](s []T) []byte {
	if _, ok := any(s).([]bool); ok {
		return nil
	}
	return raw(s)
}

// GetElems returns n elements of T carved from a byte-store slab, so
// typed scratch recycles like any transient byte slice. Contents are
// unspecified: the caller writes every element before reading it, and
// hands the slice back unsliced through PutElems. Booleans (whose memory
// must hold 0 or 1) and a slab not aligned for T are allocated instead.
func GetElems[T Elem](n int) []T {
	var z T
	if _, ok := any(z).(bool); ok || n <= 0 {
		return make([]T, max(n, 0))
	}
	size := int(unsafe.Sizeof(z))
	b := GetBytes(n * size)
	p := unsafe.Pointer(unsafe.SliceData(b))
	if uintptr(p)%unsafe.Alignof(z) != 0 {
		PutBytes(b)
		return make([]T, n)
	}
	return unsafe.Slice((*T)(p), cap(b)/size)[:n]
}

// PutElems recycles a slice from GetElems into the byte store.
func PutElems[T Elem](s []T) {
	if _, ok := any(s).([]bool); !ok && cap(s) > 0 {
		PutBytes(raw(s[:cap(s)]))
	}
}

func putElems[T Elem](dst []byte, src []T) { copy(dst, raw(src)) }

func getElems[T Elem](dst []T, src []byte) {
	if bools, ok := any(dst).([]bool); ok {
		getPortable(bools, src)
		return
	}
	copy(raw(dst), src)
}
