package mpjbuf

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// kernelCounts are the element counts every kernel case runs at: empty,
// single, odd, and either side of powers of two.
func kernelCounts() []int {
	counts := []int{0, 1, 2, 3, 5, 7}
	for k := 3; k <= 13; k++ {
		counts = append(counts, 1<<k-1, 1<<k, 1<<k+1)
	}
	return counts
}

// testKernel checks, for one element type, that the kernel the build
// selected and the portable reference produce byte-identical sections
// and that both decoders return exactly the bits that were packed.
// Sources are decoded from random bytes, so every bit pattern the type
// has (NaN payloads included) turns up; special are planted on top.
func testKernel[T Elem](t *testing.T, special ...T) {
	typ := TypeOf[T]()
	sz := typ.Size()
	r := rand.New(rand.NewSource(int64(typ)))
	for _, count := range kernelCounts() {
		off := r.Intn(9)
		random := make([]byte, count*sz)
		r.Read(random)
		src := make([]T, off+count+r.Intn(5))
		getPortable(src[off:off+count], random)
		if count >= len(special) {
			copy(src[off:], special)
		}
		elems := src[off : off+count]

		native, portable := make([]byte, count*sz), make([]byte, count*sz)
		putElems(native, elems)
		putPortable(portable, elems)
		if !bytes.Equal(native, portable) {
			t.Fatalf("%s count %d: kernels encode differently", typ, count)
		}

		// The section the public writer builds is header + those bytes.
		b := New(0)
		if err := Write(b, src, off, count); err != nil {
			t.Fatalf("%s count %d: %v", typ, count, err)
		}
		want := binary.BigEndian.AppendUint32([]byte{byte(typ)}, uint32(count))
		if want = append(want, portable...); !bytes.Equal(b.static, want) {
			t.Fatalf("%s count %d: section bytes differ from the reference encoding", typ, count)
		}

		// Bit-exact round trip through either decoder and the public
		// reader: re-encoding what came back gives the same bytes.
		reencodes := func(what string, back []T) {
			again := make([]byte, count*sz)
			putPortable(again, back)
			if !bytes.Equal(again, portable) {
				t.Fatalf("%s count %d: %s does not round-trip bit-exactly", typ, count, what)
			}
		}
		back := make([]T, count)
		getElems(back, native)
		reencodes("selected kernel", back)
		clear(back)
		getPortable(back, native)
		reencodes("portable kernel", back)
		b.Commit()
		dst := make([]T, off+count)
		if n, err := Read(b, dst, off, count); err != nil || n != count {
			t.Fatalf("%s count %d: Read = %d, %v", typ, count, n, err)
		}
		reencodes("Read", dst[off:])
	}
}

func TestKernelEquivalence(t *testing.T) {
	testKernel[byte](t, 0, 0xFF)
	testKernel[bool](t, true, false)
	testKernel[uint16](t, 0, math.MaxUint16)
	testKernel[int16](t, math.MinInt16, -1)
	testKernel[int32](t, math.MinInt32, -1)
	testKernel[int64](t, math.MinInt64, -1)
	testKernel[float32](t, math.Float32frombits(0x7fc0beef), math.Float32frombits(0x7f800001),
		float32(math.Copysign(0, -1)))
	testKernel[float64](t, math.Float64frombits(0x7ff8deadbeef0001), math.Float64frombits(0x7ff0000000000001),
		math.Copysign(0, -1))
}

// TestBooleanBytesNormalise: any non-zero section byte reads back as
// true through either kernel; a bool is never handed a raw 2.
func TestBooleanBytesNormalise(t *testing.T) {
	section := []byte{0, 1, 2, 0x80, 0xFF}
	want := []bool{false, true, true, true, true}
	for name, get := range map[string]func([]bool, []byte){"selected": getElems[bool], "portable": getPortable[bool]} {
		got := make([]bool, len(section))
		get(got, section)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s kernel: byte %#x read back as %v", name, section[i], got[i])
			}
		}
	}
	b := New(0)
	wire := append([]byte{0, 0, 0, 6, 0, 0, 0, 0, byte(BooleanType), 0, 0, 0, 1}, 2)
	if err := b.LoadWire(wire); err != nil {
		t.Fatal(err)
	}
	out := []bool{false}
	if _, err := b.ReadBooleans(out, 0, 1); err != nil || !out[0] {
		t.Fatalf("section byte 2 read back as %v, %v", out[0], err)
	}
	again := make([]byte, 1)
	putElems(again, out)
	if again[0] != 1 {
		t.Fatalf("normalised bool re-encodes as %d", again[0])
	}
}

// TestGatherScatter checks the strided kernels against the obvious
// element-by-element loop, across the stack window's boundaries.
func TestGatherScatter(t *testing.T) {
	disps := []int{0, 1, 4}
	const extent = 6
	for _, count := range []int{0, 1, 85, 86, 171, 300} {
		src := make([]int32, count*extent+3)
		for i := range src {
			src[i] = int32(i*7 + 1)
		}
		b := New(0)
		if err := Gather(b, src, 2, count, extent, disps); err != nil {
			t.Fatal(err)
		}
		var want []int32
		for i := 0; i < count; i++ {
			for _, d := range disps {
				want = append(want, src[2+i*extent+d])
			}
		}
		ref := New(0)
		if err := ref.WriteInts(want, 0, len(want)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.static, ref.static) {
			t.Fatalf("count %d: gathered section differs from the contiguous one", count)
		}
		b.Commit()
		dst := make([]int32, len(src))
		n, err := Scatter(b, dst, 2, count, extent, disps)
		if err != nil || n != len(want) {
			t.Fatalf("count %d: Scatter = %d, %v", count, n, err)
		}
		for i := 0; i < count; i++ {
			for j := 0; j < extent; j++ {
				at, inItem := 2+i*extent+j, j == 0 || j == 1 || j == 4
				if inItem && dst[at] != src[at] || !inItem && dst[at] != 0 {
					t.Fatalf("count %d: dst[%d] = %d", count, at, dst[at])
				}
			}
		}
		// A shorter section fills a prefix and stops; a longer one is refused.
		if count > 1 {
			b.Commit()
			clear(dst)
			if _, err := Scatter(b, dst, 2, count-1, extent, disps); err == nil {
				t.Fatalf("count %d: section larger than the destination accepted", count)
			}
			b.Commit()
			if n, err := Scatter(b, dst, 2, count+1, extent, disps); err != nil || n != len(want) {
				t.Fatalf("count %d: short section: Scatter = %d, %v", count, n, err)
			}
		}
	}
}
