package layers

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"mpj/bench/stats"
	"mpj/internal/core"
	"mpj/internal/mpjbuf"
	"mpj/internal/mpjdev"
	"mpj/internal/transport"
	"mpj/internal/xdev"
)

// The peel is the paper's method (§V-E, "bare mpjdev" vs MPJE) made a
// ledger: the same 2-rank in-process ping-pong timed at each public
// boundary of the message path, bottom up —
//
//	raw transport conn → xdev.Device on niodev → mpjdev.Comm →
//	core SendBuffer/RecvBuffer (pre-packed) → typed Send/Recv
//
// — all over loopback TCP, the upper four rungs on one pair of niodev
// devices so they share sockets and goroutines. A layer's self time is
// its rung minus the rung below.

// side is what one end of a ping-pong does to send and to receive.
type side struct{ send, recv func() error }

// pingpong runs warm+n round trips between two goroutines and returns
// the median half round trip in µs, timed at end a.
func pingpong(warm, n int, a, b side) (float64, error) {
	var wg sync.WaitGroup
	var berr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < warm+n; i++ {
			if berr = b.recv(); berr != nil {
				return
			}
			if berr = b.send(); berr != nil {
				return
			}
		}
	}()
	half := make([]float64, 0, n)
	var aerr error
	for i := 0; i < warm+n && aerr == nil; i++ {
		t := time.Now()
		if aerr = a.send(); aerr == nil {
			aerr = a.recv()
		}
		if i >= warm {
			half = append(half, float64(time.Since(t))/2e3)
		}
	}
	if aerr != nil {
		// b may be blocked on a message that will never come; its
		// resources are closed by the caller, which unblocks it.
		return 0, aerr
	}
	wg.Wait()
	if berr != nil {
		return 0, berr
	}
	return stats.Median(half), nil
}

// connPair dials one connection over tr and returns both ends.
func connPair(tr xdev.Transport, addr string) (dialed, accepted net.Conn, err error) {
	l, err := tr.Listen(addr)
	if err != nil {
		return nil, nil, err
	}
	defer l.Close()
	type acc struct {
		c   net.Conn
		err error
	}
	ch := make(chan acc, 1)
	go func() {
		c, err := l.Accept()
		ch <- acc{c, err}
	}()
	dialed, err = tr.Dial(l.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	a := <-ch
	if a.err != nil {
		dialed.Close()
		return nil, nil, a.err
	}
	return dialed, a.c, nil
}

// rawSides ping-pongs wire bytes over a bare connection pair.
func rawSides(c0, c1 net.Conn, wire int) (side, side) {
	mk := func(c net.Conn) side {
		buf := make([]byte, wire)
		return side{
			send: func() error { _, err := c.Write(buf); return err },
			recv: func() error { _, err := io.ReadFull(c, buf); return err },
		}
	}
	return mk(c0), mk(c1)
}

// rawHalfRTT is the transport floor: Listen/Dial/Write/Read of wire
// bytes each way, nothing of ours above the connection.
func rawHalfRTT(tr xdev.Transport, addr string, wire, warm, n int) (float64, error) {
	c0, c1, err := connPair(tr, addr)
	if err != nil {
		return 0, err
	}
	defer c0.Close()
	defer c1.Close()
	a, b := rawSides(c0, c1, wire)
	return pingpong(warm, n, a, b)
}

// freeAddrs reserves n distinct loopback TCP addresses by binding and
// releasing them.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// job is n initialized devices of one kind in this process.
type job struct {
	devs []xdev.Device
	pids []xdev.ProcessID
}

var jobSeq int

// startJob initializes n devices of the named kind. tcp selects real
// loopback sockets, otherwise the in-process transport; nodeOf is the
// simulated placement (hybrid only).
func startJob(name string, n int, tcp bool, nodeOf []int) (*job, error) {
	jobSeq++
	group := fmt.Sprintf("mpjbench-layers-%d", jobSeq)
	var dialer xdev.Transport = transport.NewInProc(0)
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("%s/rank-%d", group, i)
	}
	if tcp {
		dialer = transport.TCP{}
		var err error
		if addrs, err = freeAddrs(n); err != nil {
			return nil, err
		}
	}
	j := &job{devs: make([]xdev.Device, n)}
	errs := make([]error, n)
	pids := make([][]xdev.ProcessID, n)
	var wg sync.WaitGroup
	for i := range j.devs {
		dev, err := xdev.NewInstance(name)
		if err != nil {
			return nil, err
		}
		j.devs[i] = dev
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			pids[rank], errs[rank] = dev.Init(xdev.Config{
				Rank: rank, Size: n, Addrs: addrs, Dialer: dialer,
				Group: group, NodeOf: nodeOf, Colocated: true,
			})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			j.close()
			return nil, err
		}
	}
	j.pids = pids[0]
	return j, nil
}

func (j *job) close() {
	for _, d := range j.devs {
		d.Finish()
	}
}

// message is one ping-pong payload in both its forms: the typed user
// buffer and the pre-packed mpjbuf buffer.
type message struct {
	count int
	dt    *core.Datatype
}

func smallMessage() message { return message{count: 8, dt: core.BYTE} }
func largeMessage() message { return message{count: 1 << 17, dt: core.DOUBLE} }

// typed returns a fresh user buffer for the message.
func (m message) typed() any {
	if m.dt == core.BYTE {
		return make([]byte, m.count)
	}
	return make([]float64, m.count)
}

// packed returns the message written into a fresh mpjbuf buffer.
func (m message) packed() (*mpjbuf.Buffer, error) {
	b := mpjbuf.New(0)
	var err error
	switch v := m.typed().(type) {
	case []byte:
		err = b.WriteBytes(v, 0, m.count)
	case []float64:
		err = b.WriteDoubles(v, 0, m.count)
	}
	return b, err
}

// xdevSide ping-pongs pre-packed m with peer at the xdev boundary.
func xdevSide(dev xdev.Device, peer xdev.ProcessID, m message) (side, error) {
	sb, err := m.packed()
	if err != nil {
		return side{}, err
	}
	rb := mpjbuf.New(0)
	return side{
		send: func() error { return dev.Send(sb, peer, peelTag, peelCtx) },
		recv: func() error { rb.Clear(); _, err := dev.Recv(rb, peer, peelTag, peelCtx); return err },
	}, nil
}

// ladder is the four library rungs over one niodev-over-TCP job.
type ladder struct {
	j      *job
	comms  [2]*mpjdev.Comm
	worlds [2]*core.Intracomm
}

func newLadder() (*ladder, error) {
	j, err := startJob("niodev", 2, true, nil)
	if err != nil {
		return nil, err
	}
	l := &ladder{j: j}
	for r := 0; r < 2; r++ {
		// Contexts far from the ones core hands out on the same device.
		if l.comms[r], err = mpjdev.NewComm(j.devs[r], j.pids, r, 1<<20); err != nil {
			j.close()
			return nil, err
		}
		p, err := core.Attach(j.devs[r], j.pids, r)
		if err != nil {
			j.close()
			return nil, err
		}
		l.worlds[r] = p.World()
	}
	return l, nil
}

// wireBytes is what one message of m occupies on the wire one way: the
// device header plus the buffer's wire form.
func (l *ladder) wireBytes(m message) (int, error) {
	b, err := m.packed()
	if err != nil {
		return 0, err
	}
	return l.j.devs[0].SendOverhead() + b.WireLen(), nil
}

const peelCtx, peelTag = 1<<20 + 1, 5

// rungs returns the four library boundaries for message m, bottom up.
func (l *ladder) rungs(m message) ([]string, [][2]side, error) {
	names := []string{"xdev", "mpjdev", "sendbuffer", "typed"}
	sides := make([][2]side, len(names))
	for r := 0; r < 2; r++ {
		peer := 1 - r
		sb, err := m.packed()
		if err != nil {
			return nil, nil, err
		}
		rb := mpjbuf.New(0)
		comm, world := l.comms[r], l.worlds[r]
		out, in := m.typed(), m.typed()
		if sides[0][r], err = xdevSide(l.j.devs[r], l.j.pids[peer], m); err != nil {
			return nil, nil, err
		}
		sides[1][r] = side{
			send: func() error { return comm.Send(sb, peer, peelTag) },
			recv: func() error { rb.Clear(); _, err := comm.Recv(rb, peer, peelTag); return err },
		}
		sides[2][r] = side{
			send: func() error { return world.SendBuffer(sb, peer, peelTag) },
			recv: func() error { rb.Clear(); _, err := world.RecvBuffer(rb, peer, peelTag); return err },
		}
		sides[3][r] = side{
			send: func() error { return world.Send(out, 0, m.count, m.dt, peer, peelTag) },
			recv: func() error { _, err := world.Recv(in, 0, m.count, m.dt, peer, peelTag); return err },
		}
	}
	return names, sides, nil
}

// The rungs are measured in interleaved rounds, so that a slow stretch
// of the host lands on every rung and not on one; a rung's figure is
// the median over rounds. The 8 B rungs differ by a microsecond or
// less and an in-process ping-pong shifts by as much from one stretch
// to the next, so they get more and shorter rounds than the 1 MiB ones.
const smallRounds, largeRounds = 7, 3

// peel measures every rung for message m and adds, under the given
// size suffix ("8B", "1MiB"), the transport floor, each layer's self
// time and the reconcile ratio to out.
func peel(l *ladder, m message, suffix string, warm, n, nRounds int, out map[string]float64) error {
	wire, err := l.wireBytes(m)
	if err != nil {
		return err
	}
	names, sides, err := l.rungs(m)
	if err != nil {
		return err
	}
	c0, c1, err := connPair(transport.TCP{}, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer c0.Close()
	defer c1.Close()
	ra, rb := rawSides(c0, c1, wire)

	// rounds[k] are the half round trips of rung k; rung 0 is the raw
	// connection and the last is the typed call measured a second time,
	// independently, as the figure the self times must add up to.
	rounds := make([][]float64, len(names)+2)
	for round := 0; round < nRounds; round++ {
		for k := range rounds {
			a, b := ra, rb
			if k > 0 {
				s := sides[min(k-1, len(sides)-1)]
				a, b = s[0], s[1]
			}
			v, err := pingpong(warm, n, a, b)
			if err != nil {
				return fmt.Errorf("peel %s rung %d: %w", suffix, k, err)
			}
			rounds[k] = append(rounds[k], v)
		}
	}
	rung := make([]float64, len(rounds))
	for k := range rounds {
		rung[k] = stats.Median(rounds[k])
	}
	self := func(k int) float64 { return max(rung[k]-rung[k-1], 0) }

	out["transport.tcp_half_rtt_"+suffix+"_us"] = rung[0]
	out["niodev.self_us_"+suffix] = self(1)
	out["mpjdev.self_us_"+suffix] = self(2)
	out["core.sendbuffer_self_us_"+suffix] = self(3)
	out["core.pack_self_us_"+suffix] = self(4)
	sum := rung[0] + self(1) + self(2) + self(3) + self(4)
	out["layers.reconcile_ratio_"+suffix] = sum / rung[5]
	return nil
}
