//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package mpjbuf

func putElems[T Elem](dst []byte, src []T) { putPortable(dst, src) }

func getElems[T Elem](dst []T, src []byte) { getPortable(dst, src) }

// GetElems and PutElems allocate and drop: a typed view of a store
// slab needs unsafe, which only the little-endian kernel uses.
func GetElems[T Elem](n int) []T { return make([]T, max(n, 0)) }
func PutElems[T Elem](s []T)     {}

// view: a big-endian host's memory is not the wire encoding, so there
// is nothing to alias and every section takes the packed path.
func view[T Elem](s []T) []byte { return nil }
