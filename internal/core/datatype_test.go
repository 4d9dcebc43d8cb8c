package core

import (
	"testing"
	"testing/quick"

	"mpj/internal/mpjbuf"
)

func TestBaseDatatypes(t *testing.T) {
	for _, d := range []*Datatype{BYTE, BOOLEAN, CHAR, SHORT, INT, LONG, FLOAT, DOUBLE, OBJECT} {
		if d.Size() != 1 || d.Extent() != 1 || !d.IsContiguous() {
			t.Errorf("%s: size=%d extent=%d contiguous=%v", d, d.Size(), d.Extent(), d.IsContiguous())
		}
	}
	if DOUBLE.Base() != mpjbuf.DoubleType {
		t.Error("DOUBLE base mismatch")
	}
}

func TestContiguousDatatype(t *testing.T) {
	d, err := DOUBLE.Contiguous(4)
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != 4 || d.Extent() != 4 || !d.IsContiguous() {
		t.Fatalf("size=%d extent=%d contig=%v", d.Size(), d.Extent(), d.IsContiguous())
	}
	if _, err := DOUBLE.Contiguous(-1); err == nil {
		t.Error("negative count accepted")
	}
}

func TestVectorDatatype(t *testing.T) {
	// The paper's example: a column of a 4x4 matrix — blocklength 1,
	// stride 4, count 4.
	d, err := FLOAT.Vector(4, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != 4 {
		t.Fatalf("size = %d", d.Size())
	}
	if d.IsContiguous() {
		t.Fatal("column vector must not be contiguous")
	}
	want := []int{0, 4, 8, 12}
	for i, disp := range d.disps {
		if disp != want[i] {
			t.Fatalf("disps = %v", d.disps)
		}
	}
	if d.Extent() != 13 {
		t.Fatalf("extent = %d, want 13 (span to last element)", d.Extent())
	}
}

func TestVectorBlocks(t *testing.T) {
	d, err := INT.Vector(2, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 5, 6, 7}
	if len(d.disps) != len(want) {
		t.Fatalf("disps = %v", d.disps)
	}
	for i := range want {
		if d.disps[i] != want[i] {
			t.Fatalf("disps = %v", d.disps)
		}
	}
}

func TestIndexedDatatype(t *testing.T) {
	d, err := INT.Indexed([]int{2, 1}, []int{0, 5})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 5}
	for i := range want {
		if d.disps[i] != want[i] {
			t.Fatalf("disps = %v", d.disps)
		}
	}
	if d.Extent() != 6 {
		t.Fatalf("extent = %d", d.Extent())
	}
	if _, err := INT.Indexed([]int{1}, []int{0, 1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := INT.Indexed([]int{-1}, []int{0}); err == nil {
		t.Error("negative blocklength accepted")
	}
}

func TestNestedDerivedDatatype(t *testing.T) {
	// A vector of contiguous pairs.
	pair, err := DOUBLE.Contiguous(2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := pair.Vector(2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Items: pair at 0 (elements 0,1) and pair at stride 2 pairs = 4
	// elements (4,5).
	want := []int{0, 1, 4, 5}
	for i := range want {
		if d.disps[i] != want[i] {
			t.Fatalf("disps = %v", d.disps)
		}
	}
}

func TestStructDatatype(t *testing.T) {
	d, err := Struct([]int{1, 2}, []int{0, 1}, []*Datatype{INT, DOUBLE})
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != 3 || d.Extent() != 3 {
		t.Fatalf("size=%d extent=%d", d.Size(), d.Extent())
	}
	if _, err := Struct([]int{1}, []int{0, 1}, []*Datatype{INT, INT}); err == nil {
		t.Error("mismatched args accepted")
	}
	if _, err := d.Contiguous(2); err == nil {
		t.Error("Contiguous over struct accepted")
	}
}

func TestPackUnpackVectorColumn(t *testing.T) {
	// Send the first column of a 4x4 matrix, as in paper §IV-C.
	col, err := FLOAT.Vector(4, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	matrix := make([]float32, 16)
	for i := range matrix {
		matrix[i] = float32(i)
	}
	b, err := pack(matrix, 0, 1, col)
	if err != nil {
		t.Fatal(err)
	}
	rb := mpjbuf.New(0)
	if err := rb.LoadWire(b.Wire()); err != nil {
		t.Fatal(err)
	}
	out := make([]float32, 4)
	if _, err := unpack(rb, out, 0, 4, FLOAT); err != nil {
		t.Fatal(err)
	}
	want := []float32{0, 4, 8, 12}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("column = %v", out)
		}
	}
	// The strided kernels gather into and scatter out of the section
	// itself: no scratch slice either way.
	var boxed any = matrix
	if allocs := testing.AllocsPerRun(20, func() {
		rb.Clear()
		if err := packInto(rb, boxed, 0, 1, col); err != nil {
			t.Fatal(err)
		}
		rb.Commit()
		if _, err := unpack(rb, boxed, 0, 1, col); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("vector pack+unpack allocates %.0f times", allocs)
	}
}

func TestPackUnpackScatterBack(t *testing.T) {
	// Receive a contiguous stream back into a strided layout.
	col, err := INT.Vector(3, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pack([]int32{10, 20, 30}, 0, 3, INT)
	if err != nil {
		t.Fatal(err)
	}
	rb := mpjbuf.New(0)
	if err := rb.LoadWire(b.Wire()); err != nil {
		t.Fatal(err)
	}
	dst := make([]int32, 9)
	if _, err := unpack(rb, dst, 0, 1, col); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 10 || dst[3] != 20 || dst[6] != 30 || dst[1] != 0 {
		t.Fatalf("dst = %v", dst)
	}
}

func TestPackStructRoundTrip(t *testing.T) {
	d, err := Struct([]int{1, 2}, []int{0, 1}, []*Datatype{INT, DOUBLE})
	if err != nil {
		t.Fatal(err)
	}
	src := []any{int32(7), 1.5, 2.5, int32(8), 3.5, 4.5}
	b, err := pack(src, 0, 2, d)
	if err != nil {
		t.Fatal(err)
	}
	rb := mpjbuf.New(0)
	if err := rb.LoadWire(b.Wire()); err != nil {
		t.Fatal(err)
	}
	dst := make([]any, 6)
	if _, err := unpack(rb, dst, 0, 2, d); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("dst = %v", dst)
		}
	}
	// Packing a field block stages through the stack: no slice per field.
	wire := mpjbuf.New(256)
	var boxed any = src
	if allocs := testing.AllocsPerRun(20, func() {
		wire.Clear()
		if err := packInto(wire, boxed, 0, 2, d); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("packing a struct of small fields allocates %.0f times", allocs)
	}
}

// TestPackStructWideField covers a field block wider than the stack
// staging area.
func TestPackStructWideField(t *testing.T) {
	const wide = fieldStack + 8
	d, err := Struct([]int{wide, 1}, []int{0, wide}, []*Datatype{LONG, BOOLEAN})
	if err != nil {
		t.Fatal(err)
	}
	src := make([]any, wide+1)
	for i := 0; i < wide; i++ {
		src[i] = int64(i) - 3
	}
	src[wide] = true
	b, err := pack(src, 0, 1, d)
	if err != nil {
		t.Fatal(err)
	}
	b.Commit()
	dst := make([]any, wide+1)
	if n, err := unpack(b, dst, 0, 1, d); err != nil || n != wide+1 {
		t.Fatalf("unpack = %d, %v", n, err)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("dst[%d] = %v, want %v", i, dst[i], src[i])
		}
	}
	src[3] = "not an int64"
	if _, err := pack(src, 0, 1, d); err == nil {
		t.Error("mistyped field value accepted")
	}
}

func TestPackTypeMismatch(t *testing.T) {
	if _, err := pack([]float64{1}, 0, 1, INT); err == nil {
		t.Error("float64 buffer packed as INT")
	}
	if _, err := pack("not a slice", 0, 1, INT); err == nil {
		t.Error("string buffer accepted")
	}
}

func TestPackBoundsChecks(t *testing.T) {
	if _, err := pack([]int32{1, 2}, 0, 3, INT); err == nil {
		t.Error("over-long pack accepted")
	}
	if _, err := pack([]int32{1, 2}, -1, 1, INT); err == nil {
		t.Error("negative offset accepted")
	}
	col, _ := INT.Vector(2, 1, 5)
	if _, err := pack(make([]int32, 5), 0, 1, col); err == nil {
		t.Error("vector pack beyond buffer accepted")
	}
}

func TestQuickPackUnpackRoundTrip(t *testing.T) {
	f := func(data []float64, strideSeed uint8) bool {
		if len(data) == 0 {
			return true
		}
		stride := int(strideSeed%4) + 1
		count := len(data)
		src := make([]float64, count*stride)
		for i, v := range data {
			src[i*stride] = v
		}
		dt, err := DOUBLE.Vector(count, 1, stride)
		if err != nil {
			return false
		}
		b, err := pack(src, 0, 1, dt)
		if err != nil {
			return false
		}
		rb := mpjbuf.New(0)
		if err := rb.LoadWire(b.Wire()); err != nil {
			return false
		}
		out := make([]float64, count)
		if _, err := unpack(rb, out, 0, count, DOUBLE); err != nil {
			return false
		}
		for i := range data {
			if out[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
