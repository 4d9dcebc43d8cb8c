//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package mpjbuf

func putElems[T Elem](dst []byte, src []T) { putPortable(dst, src) }

func getElems[T Elem](dst []T, src []byte) { getPortable(dst, src) }
