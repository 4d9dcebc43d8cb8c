// Package mpj is a Go implementation of MPJ Express — the thread-safe
// MPI-like messaging library of Baker, Carpenter and Shafi ("MPJ
// Express: Towards Thread Safe Java HPC", IEEE Cluster 2006) — built
// from scratch on the Go standard library.
//
// The library reproduces the paper's layered architecture (Fig. 1):
//
//	mpj (this package)        — the MPJ API: communicators, collectives
//	internal/core             — high level + base level
//	internal/mpjdev           — rank-level device layer, Waitany/peek
//	internal/xdev             — the pluggable device API (Fig. 2)
//	internal/niodev           — pure-Go TCP device (eager + rendezvous)
//	internal/smpdev           — shared-memory device for SMP ranks
//	internal/hybriddev        — smpdev within a node, niodev across nodes
//	internal/mpjbuf           — the buffering API (static + dynamic)
//
// Those three devices are the product: this package links them and
// Options.Device selects among them. The paper's comparison devices —
// internal/mxdev over a simulated Myrinet eXpress (mxsim) and the
// MPJ/Ibis-style internal/ibisdev — and the fabric models and
// experiments behind its figures (netsim, perfmodel, expt) are
// apparatus: the tests and cmd/benchfig link them, the product does not.
//
// Every communication path is safe at MPI_THREAD_MULTIPLE: any
// goroutine of a rank may send, receive, probe or wait concurrently.
//
// # Quick start
//
//	mpj.RunLocal(4, func(p *mpj.Process) error {
//	    w := p.World()
//	    sum := make([]int64, 1)
//	    if err := w.Allreduce([]int64{int64(w.Rank())}, 0, sum, 0, 1, mpj.LONG, mpj.SUM); err != nil {
//	        return err
//	    }
//	    fmt.Printf("rank %d of %d: sum=%d\n", w.Rank(), w.Size(), sum[0])
//	    return nil
//	})
//
// Multi-process jobs are bootstrapped with the mpjrun/mpjdaemon tools
// (cmd/mpjrun, cmd/mpjdaemon); a launched process joins its job with
// InitFromEnv.
package mpj

import (
	"mpj/internal/core"
	"mpj/internal/mpjbuf"
)

// Version is the library version.
const Version = "1.0.0"

// Core type surface, re-exported for applications. External modules
// import only this package; the internal packages are implementation.
type (
	// Process is one MPI process handle (Init/Finalize scope).
	Process = core.Process
	// Intracomm is a single-group communicator with collectives.
	Intracomm = core.Intracomm
	// Intercomm is a two-group communicator.
	Intercomm = core.Intercomm
	// CartComm is an intracommunicator with a Cartesian grid.
	CartComm = core.CartComm
	// GraphComm is an intracommunicator with a neighbour graph.
	GraphComm = core.GraphComm
	// Group is an ordered process set.
	Group = core.Group
	// Datatype describes element layout (derived datatypes).
	Datatype = core.Datatype
	// Op is a reduction operation.
	Op = core.Op
	// Status describes a completed receive.
	Status = core.Status
	// Request is an in-flight non-blocking operation.
	Request = core.Request
	// ThreadLevel is an MPI-2.0 thread-support level.
	ThreadLevel = core.ThreadLevel
	// Win is a one-sided communication window (MPI-2 RMA): each rank
	// exposes a byte region that any rank reads, writes and combines
	// into with Put/Get/Accumulate, synchronized by Fence or
	// Lock/Unlock. Created with Intracomm.WinCreate.
	Win = core.Win
)

// Lock types for Win.Lock (MPI_LOCK_SHARED / MPI_LOCK_EXCLUSIVE).
const (
	LockShared    = core.LockShared
	LockExclusive = core.LockExclusive
)

// Wildcards and special ranks.
const (
	// AnySource matches a message from any rank (MPI.ANY_SOURCE).
	AnySource = core.AnySource
	// AnyTag matches any message tag (MPI.ANY_TAG).
	AnyTag = core.AnyTag
	// Undefined is the rank of processes outside a group, and the
	// non-member color for Split.
	Undefined = core.Undefined
	// ProcNull is the null process rank (MPI.PROC_NULL).
	ProcNull = core.ProcNull
)

// Thread-support levels (§IV-B). InitThread always provides
// ThreadMultiple.
const (
	ThreadSingle     = core.ThreadSingle
	ThreadFunneled   = core.ThreadFunneled
	ThreadSerialized = core.ThreadSerialized
	ThreadMultiple   = core.ThreadMultiple
)

// Base datatypes.
var (
	BYTE    = core.BYTE
	BOOLEAN = core.BOOLEAN
	CHAR    = core.CHAR
	SHORT   = core.SHORT
	INT     = core.INT
	LONG    = core.LONG
	FLOAT   = core.FLOAT
	DOUBLE  = core.DOUBLE
	OBJECT  = core.OBJECT
)

// Built-in reduction operations.
var (
	// REPLACE is the MPI_REPLACE accumulate op (Win.Accumulate only
	// combines with built-in ops).
	REPLACE = core.REPLACE

	MAX    = core.MAX
	MIN    = core.MIN
	SUM    = core.SUM
	PROD   = core.PROD
	LAND   = core.LAND
	LOR    = core.LOR
	LXOR   = core.LXOR
	BAND   = core.BAND
	BOR    = core.BOR
	BXOR   = core.BXOR
	MAXLOC = core.MAXLOC
	MINLOC = core.MINLOC
)

// Struct builds a heterogeneous derived datatype over []any buffers
// (MPI_Type_struct); see core.Struct.
func Struct(blocklengths, displacements []int, types []*Datatype) (*Datatype, error) {
	return core.Struct(blocklengths, displacements, types)
}

// NewOp wraps a user-defined reduction function (MPI_Op_create).
func NewOp(fn func(in, inout any) error, commute bool) *Op {
	return core.NewOp(fn, commute)
}

// DimsCreate factors nnodes into balanced grid dimensions
// (MPI_Dims_create).
func DimsCreate(nnodes int, dims []int) ([]int, error) {
	return core.DimsCreate(nnodes, dims)
}

// WaitAll blocks until all non-nil requests complete (MPI_Waitall).
func WaitAll(reqs []*Request) ([]*Status, error) { return core.WaitAll(reqs) }

// WaitAny blocks until one request completes, without polling
// (paper §IV-E.1); it returns the completed request's index.
func WaitAny(reqs []*Request) (int, *Status, error) { return core.WaitAny(reqs) }

// TestAny polls the requests once (MPI_Testany).
func TestAny(reqs []*Request) (int, *Status, bool, error) { return core.TestAny(reqs) }

// TestAll reports whether all requests have completed (MPI_Testall).
func TestAll(reqs []*Request) ([]*Status, bool, error) { return core.TestAll(reqs) }

// Wtime returns elapsed wall-clock seconds since a fixed point in the
// past (MPI_Wtime).
func Wtime() float64 { return core.Wtime() }

// Wtick returns the resolution of Wtime in seconds (MPI_Wtick).
func Wtick() float64 { return core.Wtick() }

// RegisterObjectType records a concrete Go type for OBJECT-datatype
// messages (the Serializable analogue); built-ins are pre-registered.
func RegisterObjectType(v any) { mpjbuf.RegisterObjectType(v) }

// Buffer is the mpjbuf message buffer, exposed for the direct-buffer
// API the paper's conclusion proposes: pack once with the typed Write
// methods, then move it with Comm.SendBuffer/RecvBuffer, skipping the
// per-call pack/unpack of the typed interface.
type Buffer = mpjbuf.Buffer

// NewBuffer returns a Buffer whose static section has the given
// initial capacity in bytes.
func NewBuffer(capacity int) *Buffer { return mpjbuf.New(capacity) }
