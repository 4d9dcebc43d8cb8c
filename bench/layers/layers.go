// Package layers holds mpjbench's layer probes: timings taken from
// outside each internal package, through its public functions, so that
// a change to one layer shows up under that layer's name before anyone
// argues about the end-to-end figure. The probes are the same whatever
// workload the traced run was asked for; they take a few seconds.
package layers

import (
	"runtime"

	_ "mpj" // links every device into the xdev registry
	"mpj/internal/transport"
	"mpj/internal/xdev"
)

// Iterations per rung and round. 8 B round trips take tens of µs and
// 1 MiB ones a millisecond or two, so both rungs cost about 0.1–0.2 s.
const (
	smallWarm, smallN = 300, 4000
	largeWarm, largeN = 10, 80
)

// Run executes every probe and returns the metrics by name.
func Run() (map[string]float64, error) {
	out := make(map[string]float64)
	l, err := newLadder()
	if err != nil {
		return nil, err
	}
	defer l.j.close()
	if err := peel(l, smallMessage(), "8B", smallWarm, smallN/2, smallRounds, out); err != nil {
		return nil, err
	}
	if err := peel(l, largeMessage(), "1MiB", largeWarm, largeN, largeRounds, out); err != nil {
		return nil, err
	}
	if out["niodev.allocs_per_msg"], err = deviceAllocs(l.j); err != nil {
		return nil, err
	}
	if err := devices(out); err != nil {
		return nil, err
	}
	if err := micro(out); err != nil {
		return nil, err
	}
	return out, nil
}

// deviceSides ping-pongs a pre-packed 8 B message between devices 0
// and 1 of j at the xdev boundary.
func deviceSides(j *job) (a, b side, err error) {
	if a, err = xdevSide(j.devs[0], j.pids[1], smallMessage()); err != nil {
		return a, b, err
	}
	b, err = xdevSide(j.devs[1], j.pids[0], smallMessage())
	return a, b, err
}

// devicePingPong starts a 2-rank job of the named device and returns
// its 8 B half round trip in µs and heap allocations per message.
func devicePingPong(name string, nodeOf []int) (halfUs, allocs float64, err error) {
	j, err := startJob(name, 2, false, nodeOf)
	if err != nil {
		return 0, 0, err
	}
	defer j.close()
	a, b, err := deviceSides(j)
	if err != nil {
		return 0, 0, err
	}
	if halfUs, err = pingpong(smallWarm, smallN, a, b); err != nil {
		return 0, 0, err
	}
	allocs, err = deviceAllocs(j)
	return halfUs, allocs, err
}

// deviceAllocs counts heap allocations per message of an 8 B device
// ping-pong on j (both ranks live in this process, so both are counted).
func deviceAllocs(j *job) (float64, error) {
	a, b, err := deviceSides(j)
	if err != nil {
		return 0, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := pingpong(0, smallN, a, b); err != nil {
		return 0, err
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / (2 * smallN), nil
}

// devices times the device-level 8 B ping-pong on the devices the
// in-process workloads run on, and the in-process transport floor.
func devices(out map[string]float64) error {
	var err error
	if out["smpdev.pingpong_8B_us"], out["smpdev.allocs_per_msg"], err = devicePingPong("smpdev", nil); err != nil {
		return err
	}
	// hybrid routes a same-node pair over its smpdev half and a
	// cross-node pair over niodev on the in-process transport; against
	// smpdev alone and the transport floor the difference is routing.
	if out["hybriddev.local_pingpong_8B_us"], _, err = devicePingPong("hybrid", []int{0, 0}); err != nil {
		return err
	}
	if out["hybriddev.remote_pingpong_8B_us"], _, err = devicePingPong("hybrid", []int{0, 1}); err != nil {
		return err
	}
	dev, err := xdev.NewInstance("niodev")
	if err != nil {
		return err
	}
	sb, err := smallMessage().packed()
	if err != nil {
		return err
	}
	out["transport.inproc_half_rtt_8B_us"], err = rawHalfRTT(
		transport.NewInProc(0), "mpjbench-layers/raw", dev.SendOverhead()+sb.WireLen(), smallWarm, smallN)
	return err
}
