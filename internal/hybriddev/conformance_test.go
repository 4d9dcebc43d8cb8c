package hybriddev

import (
	"fmt"
	"sync/atomic"
	"testing"

	"mpj/internal/devtest"
	"mpj/internal/niodev"
	"mpj/internal/transport"
	"mpj/internal/xdev"
)

var jobCounter atomic.Int64

// mapper builds the node placement for an n-rank job.
type mapper func(n int) []int

// singleNode places every rank on one node: all traffic routes over
// the shared-memory inner, no wire protocol in the data path.
func singleNode(n int) []int { return make([]int, n) }

// interleaved places rank i on node i%2: every adjacent pair is
// inter-"node", so ranks 0 and 1 — the pair the conformance suite
// hammers — always exercise the niodev path, while same-parity pairs
// keep the smp path busy and the ANY_SOURCE tests see both kinds of
// arrival race in the rank's one core.
func interleaved(n int) []int {
	nodeOf := make([]int, n)
	for i := range nodeOf {
		nodeOf[i] = i % 2
	}
	return nodeOf
}

// conformanceRunner adapts the shared device suite: an in-process
// colocated job with the given placement.
func conformanceRunner(nodes mapper) devtest.JobRunner {
	return devtest.Runner(func() xdev.Device { return New() },
		func(t *testing.T, n int) func(int) xdev.Config {
			dialer := transport.NewInProc(0)
			job := jobCounter.Add(1)
			addrs := make([]string, n)
			for i := range addrs {
				addrs[i] = fmt.Sprintf("hyb-conf-%d-rank-%d", job, i)
			}
			group := fmt.Sprintf("hyb-conf-%d", job)
			nodeOf := nodes(n)
			return func(rank int) xdev.Config {
				return xdev.Config{
					Rank: rank, Size: n, Addrs: addrs, Dialer: dialer,
					Group: group, NodeOf: nodeOf, Colocated: true,
				}
			}
		})
}

// TestConformanceSingleNode: placement says one node, so the suite
// runs entirely over the smp inner (eager-only, like smpdev itself).
func TestConformanceSingleNode(t *testing.T) {
	devtest.RunConformance(t, conformanceRunner(singleNode),
		devtest.Options{HasPeek: true})
}

// TestConformanceTwoNodes: interleaved placement routes the suite's
// rank-0↔rank-1 traffic over the wire inner (full eager/rendezvous
// protocol) while wildcard receives match both transports' arrivals.
func TestConformanceTwoNodes(t *testing.T) {
	devtest.RunConformance(t, conformanceRunner(interleaved),
		devtest.Options{HasPeek: true, RendezvousAt: niodev.DefaultEagerLimit})
}

// TestOpsAfterFinish runs on the interleaved placement, where a finished
// device has both inner transports to close.
func TestOpsAfterFinish(t *testing.T) {
	devtest.RunOpsAfterFinish(t, conformanceRunner(interleaved), func() xdev.Device { return New() })
}

// Chaos: blocked calls must fail typed, not hang, under Finish and
// peer death — on both placements.
func TestChaosConformanceSingleNode(t *testing.T) {
	devtest.RunChaos(t, conformanceRunner(singleNode),
		devtest.ChaosOptions{HasPeek: true})
}

func TestChaosConformanceTwoNodes(t *testing.T) {
	devtest.RunChaos(t, conformanceRunner(interleaved),
		devtest.ChaosOptions{HasPeek: true})
}

// Recovery: kill a rank mid-operation, then Revoke/Shrink/Agree and
// restore — the revoke must poison both inner transports.
func TestRecoveryConformanceSingleNode(t *testing.T) {
	devtest.RunRecovery(t, conformanceRunner(singleNode))
}

func TestRecoveryConformanceTwoNodes(t *testing.T) {
	devtest.RunRecovery(t, conformanceRunner(interleaved))
}

// TestNodeMapValidation rejects a placement that does not cover the
// job.
func TestNodeMapValidation(t *testing.T) {
	d := New()
	_, err := d.Init(xdev.Config{Rank: 0, Size: 4, NodeOf: []int{0, 1}})
	if err == nil {
		t.Fatal("Init accepted a node map shorter than the job")
	}
}

// User memory: node-local peers move a posted message in smpdev's one
// copy, remote ones in none.
func TestUserMemoryConformanceSingleNode(t *testing.T) {
	devtest.RunUserMemory(t, conformanceRunner(singleNode),
		devtest.UserMemOptions{PostedCopies: 1, StoreBalance: true})
}

func TestUserMemoryConformanceTwoNodes(t *testing.T) {
	devtest.RunUserMemory(t, conformanceRunner(interleaved),
		devtest.UserMemOptions{PostedCopies: 0, StoreBalance: true})
}

// TestRecycledRequestsNeverSeenLate runs the recycled-request check —
// blocking calls beside a WaitAny loop on the same device — over each
// inner transport.
func TestRecycledRequestsNeverSeenLate(t *testing.T) {
	t.Run("SingleNode", func(t *testing.T) { devtest.RunRecycle(t, conformanceRunner(singleNode)) })
	t.Run("Interleaved", func(t *testing.T) { devtest.RunRecycle(t, conformanceRunner(interleaved)) })
}
