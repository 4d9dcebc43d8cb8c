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

func putElems[T Elem](dst []byte, src []T) { copy(dst, raw(src)) }

func getElems[T Elem](dst []T, src []byte) {
	if bools, ok := any(dst).([]bool); ok {
		getPortable(bools, src)
		return
	}
	copy(raw(dst), src)
}
