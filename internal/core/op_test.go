package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestOpsAcrossElementTypes(t *testing.T) {
	cases := []struct {
		name  string
		op    *Op
		in    any
		inout any
		want  any
	}{
		{"sum-bytes", SUM, []byte{1, 2}, []byte{3, 4}, []byte{4, 6}},
		{"sum-chars", SUM, []uint16{1}, []uint16{2}, []uint16{3}},
		{"sum-shorts", SUM, []int16{-1, 5}, []int16{1, 5}, []int16{0, 10}},
		{"sum-ints", SUM, []int32{7}, []int32{8}, []int32{15}},
		{"sum-longs", SUM, []int64{1 << 40}, []int64{1 << 40}, []int64{1 << 41}},
		{"sum-floats", SUM, []float32{1.5}, []float32{2.5}, []float32{4}},
		{"sum-doubles", SUM, []float64{0.25}, []float64{0.5}, []float64{0.75}},
		{"max-ints", MAX, []int32{3, -9}, []int32{-2, 5}, []int32{3, 5}},
		{"min-doubles", MIN, []float64{2, -2}, []float64{1, 0}, []float64{1, -2}},
		{"prod-shorts", PROD, []int16{3}, []int16{4}, []int16{12}},
		{"land-bools", LAND, []bool{true, true}, []bool{true, false}, []bool{true, false}},
		{"lor-ints", LOR, []int32{0, 1}, []int32{0, 0}, []int32{0, 1}},
		{"lxor-bools", LXOR, []bool{true}, []bool{true}, []bool{false}},
		{"lxor-longs", LXOR, []int64{1}, []int64{0}, []int64{1}},
		{"band-bytes", BAND, []byte{0b1100}, []byte{0b1010}, []byte{0b1000}},
		{"bor-shorts", BOR, []int16{0b01}, []int16{0b10}, []int16{0b11}},
		{"bxor-longs", BXOR, []int64{0b1111}, []int64{0b1010}, []int64{0b0101}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.op.apply(c.in, c.inout); err != nil {
				t.Fatal(err)
			}
			switch want := c.want.(type) {
			case []byte:
				got := c.inout.([]byte)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("got %v want %v", got, want)
					}
				}
			case []uint16:
				got := c.inout.([]uint16)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("got %v want %v", got, want)
					}
				}
			case []int16:
				got := c.inout.([]int16)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("got %v want %v", got, want)
					}
				}
			case []int32:
				got := c.inout.([]int32)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("got %v want %v", got, want)
					}
				}
			case []int64:
				got := c.inout.([]int64)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("got %v want %v", got, want)
					}
				}
			case []float32:
				got := c.inout.([]float32)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("got %v want %v", got, want)
					}
				}
			case []float64:
				got := c.inout.([]float64)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("got %v want %v", got, want)
					}
				}
			case []bool:
				got := c.inout.([]bool)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("got %v want %v", got, want)
					}
				}
			}
		})
	}
}

func TestOpUnsupportedTypeErrors(t *testing.T) {
	if err := SUM.apply([]bool{true}, []bool{false}); err == nil {
		t.Error("SUM over bools accepted")
	}
	if err := BAND.apply([]float64{1}, []float64{2}); err == nil {
		t.Error("BAND over floats accepted")
	}
	if err := LAND.apply([]float64{1}, []float64{2}); err == nil {
		t.Error("LAND over floats accepted")
	}
	if err := MAXLOC.apply([]bool{true}, []bool{false}); err == nil {
		t.Error("MAXLOC over bools accepted")
	}
	if err := SUM.apply([]int32{1, 2}, []int32{1}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestLocOpsPairSemantics(t *testing.T) {
	// (value, index) pairs; ties resolve to the lower index.
	in := []float64{5, 2, 7, 9}
	inout := []float64{5, 1, 7, 3}
	if err := MAXLOC.apply(in, inout); err != nil {
		t.Fatal(err)
	}
	// Pair 0: equal values 5 — index 1 vs 1?? in has idx 2, inout idx 1:
	// equal value keeps the smaller index (1).
	if inout[0] != 5 || inout[1] != 1 {
		t.Errorf("pair 0 = (%v,%v)", inout[0], inout[1])
	}
	// Pair 1: equal values 7, indexes 9 vs 3 -> 3.
	if inout[2] != 7 || inout[3] != 3 {
		t.Errorf("pair 1 = (%v,%v)", inout[2], inout[3])
	}
	if err := MAXLOC.apply([]float64{1, 2, 3}, []float64{1, 2, 3}); err == nil {
		t.Error("odd-length pairs accepted")
	}
	// int32 and int64 variants.
	i32in, i32out := []int32{9, 0}, []int32{3, 1}
	if err := MAXLOC.apply(i32in, i32out); err != nil || i32out[0] != 9 || i32out[1] != 0 {
		t.Errorf("int32 MAXLOC: %v %v", i32out, err)
	}
	i64in, i64out := []int64{-5, 2}, []int64{-3, 0}
	if err := MINLOC.apply(i64in, i64out); err != nil || i64out[0] != -5 || i64out[1] != 2 {
		t.Errorf("int64 MINLOC: %v %v", i64out, err)
	}
	f32in, f32out := []float32{1, 7}, []float32{2, 3}
	if err := MINLOC.apply(f32in, f32out); err != nil || f32out[0] != 1 || f32out[1] != 7 {
		t.Errorf("float32 MINLOC: %v %v", f32out, err)
	}
}

func TestOpMetadata(t *testing.T) {
	if SUM.String() != "SUM" || !SUM.IsCommutative() {
		t.Error("SUM metadata wrong")
	}
	user := NewOp(func(in, inout any) error { return nil }, false)
	if user.IsCommutative() || user.String() != "USER" {
		t.Error("user op metadata wrong")
	}
}

// refNumeric and refLogical are the closure form the built-in ops had
// before their typed loops: one call of an int64 or float64 combiner
// per element. The typed loops must match it bit for bit.
func refBinOp[T any](f func(a, b T) T) func(in, inout []T) error {
	return func(in, inout []T) error {
		if len(in) != len(inout) {
			return fmt.Errorf("length mismatch")
		}
		for i := range in {
			inout[i] = f(in[i], inout[i])
		}
		return nil
	}
}

func refNumeric(f8 func(a, b float64) float64, fi func(a, b int64) int64) func(in, inout any) error {
	return func(in, inout any) error {
		switch a := in.(type) {
		case []byte:
			return refBinOp(func(x, y byte) byte { return byte(fi(int64(x), int64(y))) })(a, inout.([]byte))
		case []uint16:
			return refBinOp(func(x, y uint16) uint16 { return uint16(fi(int64(x), int64(y))) })(a, inout.([]uint16))
		case []int16:
			return refBinOp(func(x, y int16) int16 { return int16(fi(int64(x), int64(y))) })(a, inout.([]int16))
		case []int32:
			return refBinOp(func(x, y int32) int32 { return int32(fi(int64(x), int64(y))) })(a, inout.([]int32))
		case []int64:
			return refBinOp(fi)(a, inout.([]int64))
		case []float32:
			if f8 == nil {
				break
			}
			return refBinOp(func(x, y float32) float32 { return float32(f8(float64(x), float64(y))) })(a, inout.([]float32))
		case []float64:
			if f8 == nil {
				break
			}
			return refBinOp(f8)(a, inout.([]float64))
		}
		return fmt.Errorf("unsupported %T", in)
	}
}

func refLogical(fb func(a, b bool) bool) func(in, inout any) error {
	toI := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	fi := func(a, b int64) int64 { return toI(fb(a != 0, b != 0)) }
	num := refNumeric(nil, fi)
	return func(in, inout any) error {
		switch a := in.(type) {
		case []bool:
			return refBinOp(fb)(a, inout.([]bool))
		case []uint16, []float32, []float64:
			return fmt.Errorf("unsupported %T", in)
		}
		return num(in, inout)
	}
}

var refOps = map[*Op]func(in, inout any) error{
	MAX: refNumeric(func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	}, func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	}),
	MIN: refNumeric(func(a, b float64) float64 {
		if a < b {
			return a
		}
		return b
	}, func(a, b int64) int64 {
		if a < b {
			return a
		}
		return b
	}),
	SUM:  refNumeric(func(a, b float64) float64 { return a + b }, func(a, b int64) int64 { return a + b }),
	PROD: refNumeric(func(a, b float64) float64 { return a * b }, func(a, b int64) int64 { return a * b }),
	BAND: refNumeric(nil, func(a, b int64) int64 { return a & b }),
	BOR:  refNumeric(nil, func(a, b int64) int64 { return a | b }),
	BXOR: refNumeric(nil, func(a, b int64) int64 { return a ^ b }),
	LAND: refLogical(func(a, b bool) bool { return a && b }),
	LOR:  refLogical(func(a, b bool) bool { return a || b }),
	LXOR: refLogical(func(a, b bool) bool { return a != b }),
}

// randomOperands returns a seeded slice of every element type, mixing
// uniformly random bit patterns with the values where folds differ:
// zeros of both signs, infinities, quiet and signalling NaNs with
// payloads, the integer extremes (so sums and products wrap) and 0/1.
func randomOperands(rng *rand.Rand, n int) []any {
	special64 := []float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000abc),
		math.MaxFloat64, math.SmallestNonzeroFloat64}
	special32 := []float32{0, float32(math.Copysign(0, -1)), 1, -1, float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()), math.Float32frombits(0x7f800001), math.Float32frombits(0xffc00abc),
		math.MaxFloat32, math.SmallestNonzeroFloat32}
	ints := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, math.MaxInt32, math.MinInt32, 255, 65535}
	bs, u16, i16 := make([]byte, n), make([]uint16, n), make([]int16, n)
	i32, i64, bl := make([]int32, n), make([]int64, n), make([]bool, n)
	f32, f64 := make([]float32, n), make([]float64, n)
	for i := 0; i < n; i++ {
		v := int64(rng.Uint64())
		if rng.Intn(3) == 0 {
			v = ints[rng.Intn(len(ints))]
		}
		bs[i], u16[i], i16[i], i32[i], i64[i], bl[i] = byte(v), uint16(v), int16(v), int32(v), v, v&1 != 0
		f64[i] = math.Float64frombits(rng.Uint64())
		f32[i] = math.Float32frombits(rng.Uint32())
		switch rng.Intn(4) {
		case 0:
			f64[i] = special64[rng.Intn(len(special64))]
			f32[i] = special32[rng.Intn(len(special32))]
		case 1:
			f64[i] = rng.NormFloat64() * 1e3
			f32[i] = float32(rng.NormFloat64())
		}
	}
	return []any{bs, u16, i16, i32, i64, bl, f32, f64}
}

// TestBuiltinFoldsMatchClosureForm: every built-in element-wise op over
// every element type gives bit-identical results to the closure form,
// and refuses exactly the combinations it refused.
func TestBuiltinFoldsMatchClosureForm(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const n = 4096
	for seed := 0; seed < 4; seed++ {
		ins, inouts := randomOperands(rng, n), randomOperands(rng, n)
		for op, ref := range refOps {
			for j := range ins {
				want, got := cloneSlice(inouts[j]), cloneSlice(inouts[j])
				werr := ref(ins[j], want)
				gerr := op.apply(ins[j], got)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("%s over %T: error %v, closure form %v", op, ins[j], gerr, werr)
				}
				if werr == nil && !bitsEqual(want, got) {
					t.Fatalf("%s over %T: result differs from the closure form", op, ins[j])
				}
			}
		}
	}
	if err := SUM.apply([]float64{1}, []int32{1}); err == nil {
		t.Error("SUM of []float64 into []int32 accepted")
	}
}

func cloneSlice(s any) any {
	switch v := s.(type) {
	case []byte:
		return append([]byte(nil), v...)
	case []uint16:
		return append([]uint16(nil), v...)
	case []int16:
		return append([]int16(nil), v...)
	case []int32:
		return append([]int32(nil), v...)
	case []int64:
		return append([]int64(nil), v...)
	case []bool:
		return append([]bool(nil), v...)
	case []float32:
		return append([]float32(nil), v...)
	case []float64:
		return append([]float64(nil), v...)
	}
	panic(fmt.Sprintf("cloneSlice %T", s))
}

// bitsEqual compares element memory, so NaN payloads and signed zeros
// count.
func bitsEqual(a, b any) bool {
	switch x := a.(type) {
	case []float32:
		y := b.([]float32)
		for i := range x {
			if math.Float32bits(x[i]) != math.Float32bits(y[i]) {
				return false
			}
		}
		return true
	case []float64:
		y := b.([]float64)
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	return reflect.DeepEqual(a, b)
}
