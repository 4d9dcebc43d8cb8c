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
	return conformanceRunnerCfg(tr, nil)
}

// conformanceRunnerCfg is conformanceRunner with a per-rank Config
// mutator, used to pin the send-engine mode (and any future tunable)
// for a whole suite run.
func conformanceRunnerCfg(tr func() xdev.Transport, mutate func(*xdev.Config)) devtest.JobRunner {
	return devtest.Runner(func() xdev.Device { return New() },
		func(t *testing.T, n int) func(int) xdev.Config {
			dialer := tr()
			job := jobCounter.Add(1)
			addrs := make([]string, n)
			for i := range addrs {
				addrs[i] = fmt.Sprintf("conf-%d-rank-%d", job, i)
			}
			return func(rank int) xdev.Config {
				cfg := xdev.Config{Rank: rank, Size: n, Addrs: addrs, Dialer: dialer}
				if mutate != nil {
					mutate(&cfg)
				}
				return cfg
			}
		})
}

func TestConformanceInProc(t *testing.T) {
	devtest.RunConformance(t,
		conformanceRunner(func() xdev.Transport { return transport.NewInProc(0) }),
		devtest.Options{HasPeek: true, RendezvousAt: DefaultEagerLimit})
}

// TestConformanceInProcDirect pins MPJ_SEND_ENGINE=direct: the
// synchronous escape-hatch path must pass the same suite the default
// engine path does.
func TestConformanceInProcDirect(t *testing.T) {
	devtest.RunConformance(t,
		conformanceRunnerCfg(func() xdev.Transport { return transport.NewInProc(0) },
			func(cfg *xdev.Config) { cfg.SendEngine = "direct" }),
		devtest.Options{HasPeek: true, RendezvousAt: DefaultEagerLimit})
}

// TestChaosConformanceInProcDirect keeps the failure semantics of the
// direct path covered alongside the engine default.
func TestChaosConformanceInProcDirect(t *testing.T) {
	devtest.RunChaos(t,
		conformanceRunnerCfg(func() xdev.Transport { return transport.NewInProc(0) },
			func(cfg *xdev.Config) { cfg.SendEngine = "direct" }),
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
			// Reserve ports by listening on :0 first, then closing;
			// niodev's dial retry tolerates the small race.
			addrs := make([]string, n)
			for i := range addrs {
				l, err := transport.TCP{}.Listen("127.0.0.1:0")
				if err != nil {
					t.Skipf("loopback unavailable: %v", err)
				}
				addrs[i] = l.Addr().String()
				l.Close()
			}
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

// TestUserMemoryConformanceInProc runs with checksums on (the runner's
// default), so under -race the CRC pass — Go code reading the borrowed
// array — would see a scribble before completion that a raw write hides.
func TestUserMemoryConformanceInProc(t *testing.T) {
	devtest.RunUserMemory(t,
		conformanceRunner(func() xdev.Transport { return transport.NewInProc(0) }),
		devtest.UserMemOptions{PostedCopies: 0, StoreBalance: true})
}

func TestUserMemoryConformanceInProcDirect(t *testing.T) {
	devtest.RunUserMemory(t,
		conformanceRunnerCfg(func() xdev.Transport { return transport.NewInProc(0) },
			func(cfg *xdev.Config) { cfg.SendEngine = "direct" }),
		devtest.UserMemOptions{PostedCopies: 0})
}
