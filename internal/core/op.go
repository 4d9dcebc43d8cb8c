package core

import "fmt"

// Op is a reduction operation (the mpijava Op class). Built-in ops are
// exported as package variables; user-defined ops come from NewOp.
//
// An op's function combines two equal-length slices of the reduction's
// base type, accumulating into inout: inout[i] = op(in[i], inout[i]).
type Op struct {
	name    string
	commute bool
	apply   func(in, inout any) error
	// atom is the number of consecutive base elements the op combines
	// as one indivisible group: 1 for element-wise ops, 2 for the
	// (value,index) pairs of MAXLOC/MINLOC. Segmented reduction
	// algorithms only split messages at atom boundaries; atom 0 marks
	// an op that must see the whole message in one application (the
	// default for user ops, whose structure is unknown).
	atom int
}

// NewOp wraps a user-defined reduction function (MPI_Op_create). The
// function receives two equal-length slices of the buffer's element
// type ([]int32, []float64, ...) and must accumulate into inout.
//
// A user op is applied to whole messages by default, which keeps any
// interpretation of the slice valid but disables segmented reduction
// algorithms; declare a SegmentAtom to re-enable them.
func NewOp(fn func(in, inout any) error, commute bool) *Op {
	return &Op{name: "USER", commute: commute, apply: fn}
}

// SegmentAtom returns a copy of the op declaring that it combines
// independent groups of atom consecutive base elements, so reductions
// may apply it to any atom-aligned sub-range of the message. This lets
// the segmented/pipelined reduction algorithms split large payloads;
// atom <= 0 restores whole-message application.
func (o *Op) SegmentAtom(atom int) *Op {
	cp := *o
	if atom < 0 {
		atom = 0
	}
	cp.atom = atom
	return &cp
}

// String returns the op's name.
func (o *Op) String() string { return o.name }

// IsCommutative reports whether the op may be applied in any order.
func (o *Op) IsCommutative() bool { return o.commute }

// opKind names a built-in element-wise op. Each runs as a loop written
// out per element type, with no call per element.
type opKind uint8

const (
	opMax opKind = iota
	opMin
	opSum
	opProd
	opBand
	opBor
	opBxor
	opLand
	opLor
	opLxor
)

// builtinApply dispatches a built-in element-wise op to its typed loop:
// arithmetic (MAX..PROD) over every numeric type, bitwise (BAND..BXOR)
// over the integer types, logical (LAND..LXOR) over bools and the
// signed integers and bytes (non-zero meaning true, as in MPI).
func builtinApply(name string, k opKind) func(in, inout any) error {
	return func(in, inout any) error {
		switch a := in.(type) {
		case []bool:
			if k >= opLand {
				return foldBool(k, a, inout)
			}
		case []byte:
			return foldInt(k, a, inout)
		case []uint16:
			if k < opLand {
				return foldInt(k, a, inout)
			}
		case []int16:
			return foldInt(k, a, inout)
		case []int32:
			return foldInt(k, a, inout)
		case []int64:
			return foldInt(k, a, inout)
		case []float32:
			if k <= opProd {
				return foldFloat(k, a, inout)
			}
		case []float64:
			if k <= opProd {
				return foldFloat(k, a, inout)
			}
		}
		return fmt.Errorf("core: op %s unsupported for %T", name, in)
	}
}

// foldTarget checks that inout pairs with in.
func foldTarget[T any](in []T, inout any) ([]T, error) {
	out, ok := inout.([]T)
	if !ok {
		return nil, mismatchErr(in, inout)
	}
	if len(in) != len(out) {
		return nil, fmt.Errorf("core: reduction length mismatch %d vs %d", len(in), len(out))
	}
	return out[:len(in)], nil
}

// foldInt folds integers; results wrap as Go's fixed-width arithmetic.
func foldInt[T uint8 | uint16 | int16 | int32 | int64](k opKind, in []T, inout any) error {
	out, err := foldTarget(in, inout)
	if err != nil {
		return err
	}
	switch k {
	case opMax, opMin:
		for i, x := range in {
			if (k == opMax && x > out[i]) || (k == opMin && x < out[i]) {
				out[i] = x
			}
		}
	case opSum:
		for i, x := range in {
			out[i] += x
		}
	case opProd:
		for i, x := range in {
			out[i] *= x
		}
	case opBand:
		for i, x := range in {
			out[i] &= x
		}
	case opBor:
		for i, x := range in {
			out[i] |= x
		}
	case opBxor:
		for i, x := range in {
			out[i] ^= x
		}
	default:
		for i, x := range in {
			t := logical(k, x != 0, out[i] != 0)
			out[i] = 0
			if t {
				out[i] = 1
			}
		}
	}
	return nil
}

// foldFloat folds floating point through float64, so a float32 result
// is the float64 one rounded once.
func foldFloat[T float32 | float64](k opKind, in []T, inout any) error {
	out, err := foldTarget(in, inout)
	if err != nil {
		return err
	}
	switch k {
	case opMax, opMin:
		for i, x := range in {
			a, b := float64(x), float64(out[i])
			if (k == opMax && a > b) || (k == opMin && a < b) {
				b = a
			}
			out[i] = T(b)
		}
	case opSum:
		for i, x := range in {
			out[i] = T(float64(x) + float64(out[i]))
		}
	case opProd:
		for i, x := range in {
			out[i] = T(float64(x) * float64(out[i]))
		}
	}
	return nil
}

func foldBool(k opKind, in []bool, inout any) error {
	out, err := foldTarget(in, inout)
	if err != nil {
		return err
	}
	for i, x := range in {
		out[i] = logical(k, x, out[i])
	}
	return nil
}

func logical(k opKind, a, b bool) bool {
	switch k {
	case opLand:
		return a && b
	case opLor:
		return a || b
	}
	return a != b
}

// locApply implements MAXLOC/MINLOC over (value, index) pairs laid out
// as consecutive elements, the *_INT paired-type convention.
func locApply(name string, better func(a, b float64) bool) func(in, inout any) error {
	return func(in, inout any) error {
		switch a := in.(type) {
		case []int32:
			return locFold(name, better, a, inout)
		case []int64:
			return locFold(name, better, a, inout)
		case []float32:
			return locFold(name, better, a, inout)
		case []float64:
			return locFold(name, better, a, inout)
		}
		return fmt.Errorf("core: op %s unsupported for %T", name, in)
	}
}

func locFold[T int32 | int64 | float32 | float64](name string, better func(a, b float64) bool, a []T, inout any) error {
	b, ok := inout.([]T)
	if !ok {
		return mismatchErr(a, inout)
	}
	if len(a) != len(b) || len(a)%2 != 0 {
		return fmt.Errorf("core: %s needs even-length (value,index) pairs", name)
	}
	for i := 0; i < len(a); i += 2 {
		av, bv := float64(a[i]), float64(b[i])
		if better(av, bv) || (av == bv && a[i+1] < b[i+1]) {
			b[i], b[i+1] = a[i], a[i+1]
		}
	}
	return nil
}

// Built-in reduction operations (the mpijava MPI.MAX, MPI.SUM, ...).
var (
	MAX    = &Op{name: "MAX", commute: true, apply: builtinApply("MAX", opMax)}
	MIN    = &Op{name: "MIN", commute: true, apply: builtinApply("MIN", opMin)}
	SUM    = &Op{name: "SUM", commute: true, apply: builtinApply("SUM", opSum)}
	PROD   = &Op{name: "PROD", commute: true, apply: builtinApply("PROD", opProd)}
	LAND   = &Op{name: "LAND", commute: true, apply: builtinApply("LAND", opLand)}
	LOR    = &Op{name: "LOR", commute: true, apply: builtinApply("LOR", opLor)}
	LXOR   = &Op{name: "LXOR", commute: true, apply: builtinApply("LXOR", opLxor)}
	BAND   = &Op{name: "BAND", commute: true, apply: builtinApply("BAND", opBand)}
	BOR    = &Op{name: "BOR", commute: true, apply: builtinApply("BOR", opBor)}
	BXOR   = &Op{name: "BXOR", commute: true, apply: builtinApply("BXOR", opBxor)}
	MAXLOC = &Op{name: "MAXLOC", commute: true, apply: locApply("MAXLOC",
		func(a, b float64) bool { return a > b })}
	MINLOC = &Op{name: "MINLOC", commute: true, apply: locApply("MINLOC",
		func(a, b float64) bool { return a < b })}
)

func init() {
	// The arithmetic/bit/logical built-ins are element-wise; the LOC
	// ops combine (value,index) pairs. Segmented reductions split
	// messages only at these boundaries.
	for _, o := range []*Op{MAX, MIN, SUM, PROD, LAND, LOR, LXOR, BAND, BOR, BXOR} {
		o.atom = 1
	}
	MAXLOC.atom = 2
	MINLOC.atom = 2
}
