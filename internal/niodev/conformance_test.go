package niodev

import (
	"fmt"
	"sync/atomic"
	"testing"

	"mpj/internal/devtest"
	"mpj/internal/transport"
	"mpj/internal/xdev"
)

var jobCounter atomic.Int64

// conformanceRunner adapts the shared device conformance suite.
func conformanceRunner(tr func() xdev.Transport) devtest.JobRunner {
	return devtest.Runner(func() xdev.Device { return New() },
		func(t *testing.T, n int) func(int) xdev.Config {
			dialer := tr()
			job := jobCounter.Add(1)
			addrs := make([]string, n)
			for i := range addrs {
				addrs[i] = fmt.Sprintf("conf-%d-rank-%d", job, i)
			}
			return func(rank int) xdev.Config {
				return xdev.Config{Rank: rank, Size: n, Addrs: addrs, Dialer: dialer}
			}
		})
}

// directPipe is the socket buffer of the *Direct suites' in-process
// pipes: about one small frame, so nearly every write is handed directly
// to the peer's input handler and blocks until that handler reads. Any
// path on which a handler waited for a writer would hang these suites.
const directPipe = 1 << 10

func TestConformanceInProc(t *testing.T) {
	devtest.RunConformance(t,
		conformanceRunner(func() xdev.Transport { return transport.NewInProc(0) }),
		devtest.Options{HasPeek: true, RendezvousAt: DefaultEagerLimit})
}

func TestOpsAfterFinish(t *testing.T) {
	devtest.RunOpsAfterFinish(t,
		conformanceRunner(func() xdev.Transport { return transport.NewInProc(0) }),
		func() xdev.Device { return New() })
}

// TestConformanceInProcDirect runs the suite over directPipe pipes.
func TestConformanceInProcDirect(t *testing.T) {
	devtest.RunConformance(t,
		conformanceRunner(func() xdev.Transport { return transport.NewInProc(directPipe) }),
		devtest.Options{HasPeek: true, RendezvousAt: DefaultEagerLimit})
}

// TestChaosConformanceInProcDirect runs the failure-semantics suite over
// directPipe pipes, where a dying peer usually leaves a writer blocked
// mid-frame.
func TestChaosConformanceInProcDirect(t *testing.T) {
	devtest.RunChaos(t,
		conformanceRunner(func() xdev.Transport { return transport.NewInProc(directPipe) }),
		devtest.ChaosOptions{HasPeek: true})
}

// TestConformanceTCP runs the same suite over real loopback sockets —
// the transport multi-process jobs use.
func TestConformanceTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback TCP suite skipped in -short mode")
	}
	devtest.RunConformance(t, devtest.Runner(func() xdev.Device { return New() },
		func(t *testing.T, n int) func(int) xdev.Config {
			addrs := loopbackAddrs(t, n)
			return func(rank int) xdev.Config {
				return xdev.Config{Rank: rank, Size: n, Addrs: addrs, Dialer: transport.TCP{}}
			}
		}),
		devtest.Options{HasPeek: true, LargeN: 60_000, RendezvousAt: DefaultEagerLimit})
}

// TestChaosConformanceInProc runs the shared failure-semantics suite:
// blocked calls must fail typed, not hang, under Finish and peer death.
func TestChaosConformanceInProc(t *testing.T) {
	devtest.RunChaos(t,
		conformanceRunner(func() xdev.Transport { return transport.NewInProc(0) }),
		devtest.ChaosOptions{HasPeek: true})
}

// TestRecoveryConformanceInProc runs the survivor-continues recovery
// suite: kill a rank mid-operation, then Revoke/Shrink/Agree/Restore.
func TestRecoveryConformanceInProc(t *testing.T) {
	devtest.RunRecovery(t,
		conformanceRunner(func() xdev.Transport { return transport.NewInProc(0) }))
}

// Under -race, TestUserMemoryConformanceInProc's CRC pass — Go code
// reading the borrowed array — would see a scribble before completion
// that a raw write hides.
func TestUserMemoryConformanceInProc(t *testing.T) {
	devtest.RunUserMemory(t,
		conformanceRunner(func() xdev.Transport { return transport.NewInProc(0) }),
		devtest.UserMemOptions{PostedCopies: 0, StoreBalance: true})
}

// TestUserMemoryConformanceInProcDirect runs the user-memory suite over
// directPipe pipes, where a borrowed payload is still being written long
// after the send was posted.
func TestUserMemoryConformanceInProcDirect(t *testing.T) {
	devtest.RunUserMemory(t,
		conformanceRunner(func() xdev.Transport { return transport.NewInProc(directPipe) }),
		devtest.UserMemOptions{PostedCopies: 0})
}

// TestRecycledRequestsNeverSeenLate runs the recycled-request check:
// blocking calls beside a WaitAny loop on the same device.
func TestRecycledRequestsNeverSeenLate(t *testing.T) {
	devtest.RunRecycle(t, conformanceRunner(func() xdev.Transport { return transport.NewInProc(0) }))
}
