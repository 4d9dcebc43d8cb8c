package devcore

import (
	"sync"

	"mpj/internal/mpjbuf"
)

// Per-message transient allocations — frame headers, eager staging
// areas, wire-form copies — come from mpjbuf's size-classed byte store,
// the one message buffers draw their backing from, so a slab freed by
// one layer is the next layer's allocation.

// GetSlice returns a byte slice of length n from the byte store.
// Contents are unspecified; the caller must overwrite every byte it
// reads back.
func GetSlice(n int) []byte { return mpjbuf.GetBytes(n) }

// PutSlice recycles a slice previously returned by GetSlice. The caller
// must not retain any reference to b.
func PutSlice(b []byte) { mpjbuf.PutBytes(b) }

// WireCopy returns b's wire encoding in a pooled slice. The caller
// owns the result and should hand it back through PutSlice once the
// message is consumed.
func WireCopy(b *mpjbuf.Buffer) []byte {
	out := GetSlice(b.WireLen())
	b.EncodeWire(out)
	return out
}

var bufPool = sync.Pool{New: func() any { return mpjbuf.New(0) }}

// GetBuffer returns an empty write-mode message buffer from the pool.
func GetBuffer() *mpjbuf.Buffer {
	return bufPool.Get().(*mpjbuf.Buffer)
}

// PutBuffer resets b and returns it to the pool. Only hand back
// buffers whose message is fully delivered: the next GetBuffer caller
// may be any goroutine.
func PutBuffer(b *mpjbuf.Buffer) {
	if b == nil {
		return
	}
	b.Reset()
	bufPool.Put(b)
}
