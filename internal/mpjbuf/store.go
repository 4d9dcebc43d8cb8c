package mpjbuf

import (
	"math/bits"
	"sync"
)

// The byte store: every transient byte slice on the message path — a
// Buffer's static backing, wire-form copies, eager staging areas, frame
// headers — is drawn from here, in size classes of 2^k + classSlack
// bytes. The slack keeps a 2^k-byte payload in class k once its section
// header (5 B), wire header (8 B) and a caller's own framing are added,
// so a 1 MiB message cycles one 1 MiB slab instead of allocating at the
// class boundary. The pools hold *[]byte boxes that cycle through a side
// pool, so a steady-state GetBytes/PutBytes pair allocates nothing; they
// fill lazily and the garbage collector empties them when idle.

const (
	minClassBits = 6  // 64 B: smaller slices are cheaper to allocate than to pool
	maxClassBits = 26 // 64 MiB: larger slices go straight to the allocator
	classSlack   = 32
)

var classes [maxClassBits + 1]sync.Pool

var boxPool = sync.Pool{New: func() any { return new([]byte) }}

// classFor returns the size class whose capacity holds n bytes, or -1
// when n is outside the pooled range.
func classFor(n int) int {
	if n <= 0 || n > 1<<maxClassBits+classSlack {
		return -1
	}
	c := minClassBits
	if n > 1<<minClassBits+classSlack {
		c = bits.Len(uint(n - classSlack - 1))
	}
	return c
}

// GetBytes returns a byte slice of length n, drawn from the store when
// n fits a size class. Contents are unspecified; the caller must
// overwrite every byte it reads back.
func GetBytes(n int) []byte {
	c := classFor(n)
	if c < 0 {
		return make([]byte, max(n, 0))
	}
	var b []byte
	if v := classes[c].Get(); v != nil {
		box := v.(*[]byte)
		b = (*box)[:n]
		*box = nil
		boxPool.Put(box)
	} else {
		b = make([]byte, n, 1<<c+classSlack)
	}
	stored(b, +1)
	return b
}

func stored(b []byte, d int) {
	if p := probe.Load(); p != nil && p.Store != nil {
		p.Store(cap(b), d)
	}
}

// PutBytes recycles a slice previously returned by GetBytes. Slices
// whose capacity is not exactly a size class (including any slice
// GetBytes fell back to allocating) are dropped for the garbage
// collector. The caller must not retain any reference to b.
func PutBytes(b []byte) {
	c := cap(b) - classSlack
	if c <= 0 || c&(c-1) != 0 {
		return
	}
	cls := bits.Len(uint(c)) - 1
	if cls < minClassBits || cls > maxClassBits {
		return
	}
	stored(b, -1)
	box := boxPool.Get().(*[]byte)
	*box = b[:0]
	classes[cls].Put(box)
}
