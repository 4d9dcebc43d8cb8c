package expt

import (
	"strings"
	"testing"
	"time"

	"mpj/internal/netsim"
	"mpj/internal/transport"
)

func TestAnySourceOverlapBothModes(t *testing.T) {
	// Keep sizes modest for the unit test; the benchmark harness runs
	// the full-size experiment.
	for _, mode := range []string{"mpj", "ibis"} {
		res, err := AnySourceOverlap(mode, 64, 10)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if res.Compute <= 0 || res.Total < res.Compute {
			t.Fatalf("%s: nonsense timings %+v", mode, res)
		}
	}
}

func TestAnySourceOverlapUnknownMode(t *testing.T) {
	if _, err := AnySourceOverlap("nope", 8, 1); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestManyPendingReceivesMPJ(t *testing.T) {
	posted, postErr, err := ManyPendingReceives("mpj", 650)
	if err != nil {
		t.Fatal(err)
	}
	if postErr != nil {
		t.Fatalf("MPJ Express failed to post all receives: %v", postErr)
	}
	if posted != 650 {
		t.Fatalf("posted %d of 650", posted)
	}
}

func TestManyPendingReceivesNiodev(t *testing.T) {
	posted, postErr, err := ManyPendingReceives("mpj-nio", 650)
	if err != nil {
		t.Fatal(err)
	}
	if postErr != nil || posted != 650 {
		t.Fatalf("niodev posted %d/650: %v", posted, postErr)
	}
}

func TestManyPendingReceivesIbisFails(t *testing.T) {
	// The ibis-style device must refuse around its thread ceiling with
	// the JVM's characteristic complaint.
	posted, postErr, err := ManyPendingReceives("ibis", 650)
	if err != nil {
		t.Fatal(err)
	}
	if postErr == nil {
		t.Fatal("ibis-style device posted 650 receives; paper says it cannot")
	}
	if !strings.Contains(postErr.Error(), "native thread") {
		t.Fatalf("unexpected failure text: %v", postErr)
	}
	if posted >= 650 {
		t.Fatalf("posted %d", posted)
	}
}

func TestPingPongLiveEagerAndRendezvous(t *testing.T) {
	small, err := PingPongLive(transport.NewInProc(256<<10), 1024, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if small.HalfRTT <= 0 || small.Bandwidth <= 0 {
		t.Fatalf("small: %+v", small)
	}
	// Force rendezvous with a tiny eager limit.
	large, err := PingPongLive(transport.NewInProc(256<<10), 1<<20, 5, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if large.HalfRTT <= small.HalfRTT {
		t.Fatalf("1 MB (%v) not slower than 1 KB (%v)", large.HalfRTT, small.HalfRTT)
	}
	if large.Bandwidth <= small.Bandwidth {
		t.Fatalf("bandwidth should rise with size: %v vs %v", large.Bandwidth, small.Bandwidth)
	}
}

// TestPingPongLiveShapedFabric runs the live ping-pong over the emulated
// Gigabit Ethernet fabric, built the way benchfig's -fabric flag builds
// it: a small message's half round trip must take at least the
// fabric's one-way latency (21 us). An unknown fabric name is an error.
func TestPingPongLiveShapedFabric(t *testing.T) {
	if _, err := netsim.FabricByName("nosuch"); err == nil {
		t.Error("unknown fabric accepted")
	}
	f, err := netsim.FabricByName("gige")
	if err != nil {
		t.Fatal(err)
	}
	tr := transport.NewShaped(f.SocketBufBytes, f.LatencyUS*1e-6, f.BytesPerSecond())
	res, err := PingPongLive(tr, 4, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.HalfRTT < 21*time.Microsecond {
		t.Fatalf("half round trip %v unbelievably fast for emulated GigE", res.HalfRTT)
	}
}
