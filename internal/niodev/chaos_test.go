package niodev

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"mpj/internal/mpe"
	"mpj/internal/mpjbuf"
	"mpj/internal/transport"
	"mpj/internal/xdev"
)

// Seeded fault-injection tests: deterministic chaos against full
// multi-rank jobs. Each scenario runs once per seed; the seed drives
// both the fault plan's threshold jitter and any in-test randomness,
// so a failing seed reproduces exactly with
//
//	MPJ_CHAOS_SEED=<n> go test -race -run TestChaos ./internal/niodev/
//
// Set MPJ_CHAOS_TRACE_DIR to dump per-rank mpe trace files on failure
// (the CI chaos job uploads them as artifacts).

// chaosSeeds returns the fault-plan seeds to exercise: the single seed
// in MPJ_CHAOS_SEED when set (the CI chaos matrix), a fixed trio
// otherwise.
func chaosSeeds(t *testing.T) []int64 {
	if s := os.Getenv("MPJ_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("MPJ_CHAOS_SEED=%q: %v", s, err)
		}
		return []int64{v}
	}
	return []int64{1, 2, 3}
}

// chaosJob boots an n-rank job over a shared in-process fabric, with
// each rank's dialer taken from dialerOf (nil = the plain fabric; the
// usual shape wraps one rank's dialer in a transport.Faulty). Devices
// are finished on cleanup; on test failure each rank's trace is written
// to MPJ_CHAOS_TRACE_DIR if set.
func chaosJob(t *testing.T, n int, dialerOf func(rank int, base xdev.Transport) xdev.Transport) []*Device {
	t.Helper()
	base := transport.NewInProc(0)
	job := jobCounter.Add(1)
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("chaos-%d-rank-%d", job, i)
	}
	traceDir := os.Getenv("MPJ_CHAOS_TRACE_DIR")
	devs := make([]*Device, n)
	tracers := make([]*mpe.Tracer, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		devs[i] = New()
		dialer := xdev.Transport(base)
		if dialerOf != nil {
			dialer = dialerOf(i, base)
		}
		cfg := xdev.Config{Rank: i, Size: n, Addrs: addrs, Dialer: dialer}
		if traceDir != "" {
			tracers[i] = mpe.NewTracer(i, 0)
			cfg.Recorder = tracers[i]
		}
		wg.Add(1)
		go func(rank int, cfg xdev.Config) {
			defer wg.Done()
			_, errs[rank] = devs[rank].Init(cfg)
		}(i, cfg)
	}
	wg.Wait()
	t.Cleanup(func() {
		for _, d := range devs {
			d.Finish()
		}
		if traceDir != "" && t.Failed() {
			for _, tr := range tracers {
				if tr != nil {
					if err := mpe.WriteFile(traceDir, tr.File()); err != nil {
						t.Logf("trace dump: %v", err)
					}
				}
			}
		}
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d init: %v", i, err)
		}
	}
	return devs
}

func chaosSend(d *Device, dst xdev.ProcessID, tag int, vals []int64) error {
	buf := mpjbuf.New(len(vals)*8 + 16)
	if err := buf.WriteLongs(vals, 0, len(vals)); err != nil {
		return err
	}
	return d.Send(buf, dst, tag, 0)
}

func chaosRecv(d *Device, src xdev.ProcessID, tag int) error {
	buf := mpjbuf.New(0)
	_, err := d.Recv(buf, src, tag, 0)
	return err
}

// TestChaosKillOneRankMidTraffic is the issue's acceptance scenario: a
// 4-rank job exchanges ring traffic, then a seeded victim finishes
// (dies) while every survivor has both a blocked Recv and a posted
// IRecv pinned on it. Both must surface xdev.ErrPeerLost within 10
// seconds — no goroutine left blocked — and the survivors must still be
// able to talk to each other afterwards.
func TestChaosKillOneRankMidTraffic(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const n = 4
			rng := rand.New(rand.NewSource(seed))
			victim := rng.Intn(n)
			killDelay := time.Duration(20+rng.Intn(60)) * time.Millisecond
			devs := chaosJob(t, n, nil)

			var wg sync.WaitGroup
			for rank := 0; rank < n; rank++ {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					d := devs[rank]
					// Ring traffic proves the job is wired before the
					// fault fires.
					for i := 0; i < 10; i++ {
						if err := chaosSend(d, d.pids[(rank+1)%n], 1, []int64{int64(rank*100 + i)}); err != nil {
							t.Errorf("rank %d ring send: %v", rank, err)
							return
						}
						if err := chaosRecv(d, d.pids[(rank-1+n)%n], 1); err != nil {
							t.Errorf("rank %d ring recv: %v", rank, err)
							return
						}
					}
					if rank == victim {
						time.Sleep(killDelay)
						d.Finish()
						return
					}

					// One posted IRecv and one blocked Recv, both pinned
					// on the victim; the victim never sends either.
					waitErrc := make(chan error, 1)
					if req, err := d.IRecv(mpjbuf.New(0), d.pids[victim], 98, 0); err != nil {
						waitErrc <- err // victim already detected dead
					} else {
						go func() {
							_, err := req.Wait()
							waitErrc <- err
						}()
					}
					recvErrc := make(chan error, 1)
					go func() { recvErrc <- chaosRecv(d, d.pids[victim], 99) }()

					deadline := time.After(10 * time.Second)
					for pending := 2; pending > 0; pending-- {
						select {
						case err := <-recvErrc:
							recvErrc = nil
							if !errors.Is(err, xdev.ErrPeerLost) {
								t.Errorf("rank %d: blocked Recv got %v, want ErrPeerLost", rank, err)
							}
						case err := <-waitErrc:
							waitErrc = nil
							if !errors.Is(err, xdev.ErrPeerLost) {
								t.Errorf("rank %d: blocked Wait got %v, want ErrPeerLost", rank, err)
							}
						case <-deadline:
							t.Errorf("rank %d: still blocked on dead rank %d after 10s", rank, victim)
							return
						}
					}

					// Survivors re-form a smaller ring and keep working.
					next := (rank + 1) % n
					for next == victim {
						next = (next + 1) % n
					}
					prev := (rank - 1 + n) % n
					for prev == victim {
						prev = (prev - 1 + n) % n
					}
					if err := chaosSend(d, d.pids[next], 2, []int64{int64(rank)}); err != nil {
						t.Errorf("rank %d post-loss send: %v", rank, err)
					}
					if err := chaosRecv(d, d.pids[prev], 2); err != nil {
						t.Errorf("rank %d post-loss recv: %v", rank, err)
					}
				}(rank)
			}
			wg.Wait()
		})
	}
}

// TestChaosResetMidRendezvous cuts the connection partway through
// what rank 0 writes of a large rendezvous transfer: past the hello and
// RTS control traffic, well before the ~512 KiB payload completes. The receiver's
// blocked Recv must fail with ErrPeerLost (it answered the RTS and is
// owed data that will never arrive) and the sender's Send must report
// the failure rather than pretend success.
func TestChaosResetMidRendezvous(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			devs := chaosJob(t, 2, func(rank int, base xdev.Transport) xdev.Transport {
				if rank != 0 {
					return base
				}
				return transport.NewFaulty(base, transport.FaultPlan{
					Seed:            seed,
					ResetAfterBytes: 64 << 10,
				})
			})

			const elems = 64 << 10 // 512 KiB payload, 4× the eager limit
			sendErrc := make(chan error, 1)
			go func() {
				sendErrc <- chaosSend(devs[0], devs[0].pids[1], 3, make([]int64, elems))
			}()

			if err := chaosRecv(devs[1], devs[1].pids[0], 3); err == nil {
				t.Fatal("recv of reset rendezvous transfer succeeded")
			} else if !errors.Is(err, xdev.ErrPeerLost) {
				t.Fatalf("recv error %v does not wrap ErrPeerLost", err)
			}
			select {
			case err := <-sendErrc:
				if err == nil {
					t.Fatal("send over reset channel reported success")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("sender still blocked 10s after reset")
			}
		})
	}
}

// TestChaosCorruptFrame flips a bit in rank 0's wire traffic shortly
// after the handshake (the 12-byte hello itself stays clean, so the
// job wires up). The receiver's CRC check must reject the frame —
// counted in FramesCorrupt, surfaced as ErrCorruptFrame — and declare
// the peer lost. Never silent corruption.
func TestChaosCorruptFrame(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			devs := chaosJob(t, 2, func(rank int, base xdev.Transport) xdev.Transport {
				if rank != 0 {
					return base
				}
				// Threshold jitter keeps the cut in [48, 80] bytes:
				// after the hello, inside the first eager frames.
				return transport.NewFaulty(base, transport.FaultPlan{
					Seed:              seed,
					CorruptAfterBytes: 64,
				})
			})

			// Small eager sends, paced so each one goes out as its own
			// wire write: corruption fires on the first write
			// that STARTS past the threshold, so a single coalesced batch
			// spanning it would sail through clean. Enough paced writes
			// guarantee one begins beyond the jittered cut. Sends may
			// themselves error once the receiver has torn the connection
			// down; that is fine.
			for i := 0; i < 8; i++ {
				if err := chaosSend(devs[0], devs[0].pids[1], 4, []int64{int64(i)}); err != nil {
					t.Logf("send %d after corruption: %v", i, err)
					break
				}
				time.Sleep(2 * time.Millisecond)
			}

			deadline := time.Now().Add(10 * time.Second)
			var perr error
			for time.Now().Before(deadline) {
				if perr = devs[1].peerErr(0); perr != nil {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			if perr == nil {
				t.Fatal("receiver never declared the corrupting peer dead")
			}
			if !errors.Is(perr, xdev.ErrCorruptFrame) {
				t.Errorf("peer death cause %v does not wrap ErrCorruptFrame", perr)
			}
			if !errors.Is(perr, xdev.ErrPeerLost) {
				t.Errorf("peer death cause %v does not wrap ErrPeerLost", perr)
			}
			if got := devs[1].Stats().FramesCorrupt; got < 1 {
				t.Errorf("FramesCorrupt = %d, want ≥ 1", got)
			}
			// The corruption must also surface to blocked callers, not
			// just the stats: a receive pinned on the dead peer fails
			// fast (tag 44 was never sent, so no buffered clean message
			// can satisfy it).
			if err := chaosRecv(devs[1], devs[1].pids[0], 44); !errors.Is(err, xdev.ErrPeerLost) {
				t.Errorf("recv from corrupting peer got %v, want ErrPeerLost", err)
			}
		})
	}
}

// TestChaosAbort: one rank aborts the job while every other rank is
// blocked receiving. The abort broadcast must wake them all with the
// abort code — MPI_Abort semantics at the device layer.
func TestChaosAbort(t *testing.T) {
	const n, code = 4, 7
	devs := chaosJob(t, n, nil)
	var wg sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			d := devs[rank]
			if rank == 0 {
				time.Sleep(50 * time.Millisecond) // let the others block
				if err := d.Abort(code); err != nil {
					t.Errorf("abort: %v", err)
				}
				return
			}
			errc := make(chan error, 1)
			go func() { errc <- chaosRecv(d, d.pids[0], 50) }()
			select {
			case err := <-errc:
				if !errors.Is(err, xdev.ErrAborted) {
					t.Errorf("rank %d: recv during abort got %v, want ErrAborted", rank, err)
					return
				}
				var ab *xdev.AbortError
				if !errors.As(err, &ab) {
					t.Errorf("rank %d: %v carries no *xdev.AbortError", rank, err)
				} else if ab.Code != code || ab.From != 0 {
					t.Errorf("rank %d: abort (code=%d from=%d), want (code=%d from=0)",
						rank, ab.Code, ab.From, code)
				}
			case <-time.After(10 * time.Second):
				t.Errorf("rank %d: recv still blocked 10s after abort", rank)
			}
		}(rank)
	}
	wg.Wait()
}

// TestChaosDialRefusals: a rank whose dials are refused several times
// must still join the job — dialPeer's jittered backoff absorbs planned
// refusals exactly like peers that are slow to come up.
func TestChaosDialRefusals(t *testing.T) {
	var faulty *transport.Faulty
	var peerAddr string
	devs := chaosJob(t, 2, func(rank int, base xdev.Transport) xdev.Transport {
		if rank != 1 {
			return base
		}
		faulty = transport.NewFaulty(base, transport.FaultPlan{Seed: 1, DialRefusals: 3})
		return faulty
	})
	peerAddr = devs[1].cfg.Addrs[0]

	// chaosJob already fataled if Init failed; the job being up despite
	// the refusals is the point. Confirm the retries actually happened.
	if got := faulty.Dials(peerAddr); got < 4 {
		t.Fatalf("Dials(%q) = %d, want ≥ 4 (3 refusals + success)", peerAddr, got)
	}
	if err := chaosSend(devs[1], devs[1].pids[0], 5, []int64{42}); err != nil {
		t.Fatalf("send after refused dials: %v", err)
	}
	if err := chaosRecv(devs[0], devs[0].pids[1], 5); err != nil {
		t.Fatalf("recv after refused dials: %v", err)
	}
}
