// Package telemetry is the live observability endpoint of a running
// job: an opt-in, per-rank HTTP server (MPJ_METRICS_ADDR /
// Options.MetricsAddr) exposing
//
//   - /metrics — Prometheus text exposition of every mpe counter and
//     latency histogram;
//   - /introspect — a JSON dump of live progress-engine state
//     (posted/unexpected queue depths, in-flight protocol exchanges,
//     per-peer failure state) from internal/devcore;
//   - /debug/pprof/ — the standard Go profiler endpoints.
//
// PR 1's tracing answers "what happened" after finalize; this package
// answers "what is happening" while the job runs. One process can host
// several ranks (RunLocal) — each registers a Source and the endpoints
// fan over all of them. The mpjrt daemon and mpjrun aggregate many
// per-rank servers into one job-level view (see aggregate.go).
//
// Stdlib only: net/http, net/http/pprof, encoding/json.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"mpj/internal/mpe"
	"mpj/internal/replay"
)

// Source is one rank's view into its live device state. Stats is
// required; SendHist/RecvHist/Introspect are nil when the rank is not
// tracing or the device exposes no introspection.
type Source struct {
	Rank       int
	Device     string
	Stats      func() mpe.CounterSnapshot
	SendHist   func() mpe.HistSnapshot
	RecvHist   func() mpe.HistSnapshot
	Introspect func() any
	// RmaHist reports the rank's RMA fence-epoch latency histogram
	// (nil when not tracing).
	RmaHist func() mpe.HistSnapshot
	// RecoveryHist reports the rank's fault-recovery latency histogram
	// (Recovered spans; nil when not tracing).
	RecoveryHist func() mpe.HistSnapshot
	// RMA reports the rank's live one-sided window state (nil when the
	// rank has no windows to report).
	RMA func() any
	// Replay reports the rank's record/replay session state (nil when
	// neither recording nor replaying).
	Replay func() replay.State
}

// Introspector is implemented by devices that can dump their live
// progress-engine state: every device in this repository, the product
// devices (niodev, smpdev, hybrid) and the apparatus (mxdev, ibisdev).
type Introspector interface {
	Introspect() any
}

// Server is one process's telemetry endpoint, serving every rank
// registered with it.
type Server struct {
	mu      sync.Mutex
	sources []Source
	ln      net.Listener
	srv     *http.Server
}

// NewServer returns an empty telemetry server; Register sources, then
// Start it.
func NewServer() *Server { return &Server{} }

// Register adds a rank's source. Safe to call while serving.
func (s *Server) Register(src Source) {
	s.mu.Lock()
	s.sources = append(s.sources, src)
	s.mu.Unlock()
}

// snapshot returns the registered sources, rank-ordered.
func (s *Server) snapshot() []Source {
	s.mu.Lock()
	out := append([]Source(nil), s.sources...)
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

// Handler returns the endpoint mux: /metrics, /introspect, and
// /debug/pprof/*.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.serveMetrics)
	mux.HandleFunc("/introspect", s.serveIntrospect)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Start listens on addr (host:port; :0 picks a free port) and serves
// until Close. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	s.ln = ln
	s.srv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	srv := s.srv
	s.mu.Unlock()
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Addr returns the bound address, or "" before Start.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops serving. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.srv
	s.srv, s.ln = nil, nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

func (s *Server) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteMetrics(w, s.snapshot())
}

func (s *Server) serveIntrospect(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	out := map[string]any{}
	for _, src := range s.snapshot() {
		st := map[string]any{"device": src.Device}
		if src.Introspect != nil {
			st["state"] = src.Introspect()
		}
		if src.RMA != nil {
			if ws := src.RMA(); ws != nil {
				st["rma"] = ws
			}
		}
		if src.Replay != nil {
			st["replay"] = src.Replay()
		}
		out[fmt.Sprint(src.Rank)] = st
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(map[string]any{"ranks": out})
}

// counterDefs maps every CounterSnapshot field to a Prometheus metric.
var counterDefs = []struct {
	name, help string
	get        func(mpe.CounterSnapshot) uint64
}{
	{"mpj_eager_sent_total", "Sends that took the eager protocol.", func(c mpe.CounterSnapshot) uint64 { return c.EagerSent }},
	{"mpj_rndv_sent_total", "Sends that took the rendezvous protocol.", func(c mpe.CounterSnapshot) uint64 { return c.RndvSent }},
	{"mpj_bytes_sent_total", "Payload bytes handed to the transport.", func(c mpe.CounterSnapshot) uint64 { return c.BytesSent }},
	{"mpj_recv_unexpected_total", "Arrivals parked with no posted receive.", func(c mpe.CounterSnapshot) uint64 { return c.Unexpected }},
	{"mpj_recv_matched_total", "Arrivals that found a posted receive.", func(c mpe.CounterSnapshot) uint64 { return c.Matched }},
	{"mpj_peers_lost_total", "Peer processes declared dead.", func(c mpe.CounterSnapshot) uint64 { return c.PeersLost }},
	{"mpj_frames_corrupt_total", "Wire frames rejected by the integrity check.", func(c mpe.CounterSnapshot) uint64 { return c.FramesCorrupt }},
	{"mpj_requests_failed_total", "Requests completed with an error.", func(c mpe.CounterSnapshot) uint64 { return c.RequestsFailed }},
	{"mpj_coll_segs_sent_total", "Pipeline segments sent by segmented collectives.", func(c mpe.CounterSnapshot) uint64 { return c.CollSegsSent }},
	{"mpj_coll_segs_recv_total", "Pipeline segments received by segmented collectives.", func(c mpe.CounterSnapshot) uint64 { return c.CollSegsRecv }},
	{"mpj_rma_puts_total", "One-sided Put operations issued as origin.", func(c mpe.CounterSnapshot) uint64 { return c.RmaPuts }},
	{"mpj_rma_gets_total", "One-sided Get operations issued as origin.", func(c mpe.CounterSnapshot) uint64 { return c.RmaGets }},
	{"mpj_rma_accs_total", "One-sided Accumulate operations issued as origin.", func(c mpe.CounterSnapshot) uint64 { return c.RmaAccs }},
	{"mpj_rma_bytes_total", "Payload bytes moved by one-sided operations issued as origin.", func(c mpe.CounterSnapshot) uint64 { return c.RmaBytes }},
	{"mpj_send_batches_total", "Batched wire writes issued by the niodev send path.", func(c mpe.CounterSnapshot) uint64 { return c.SendBatches }},
	{"mpj_frames_coalesced_total", "Frames carried by the niodev send path's batched writes.", func(c mpe.CounterSnapshot) uint64 { return c.FramesCoalesced }},
	{"mpj_send_batch_bytes_total", "Wire bytes (headers+payload) written by the niodev send path.", func(c mpe.CounterSnapshot) uint64 { return c.SendBatchBytes }},
	{"mpj_comm_revokes_total", "Communicator revocations initiated by this rank.", func(c mpe.CounterSnapshot) uint64 { return c.CommRevokes }},
	{"mpj_comm_shrinks_total", "Successful communicator Shrink operations.", func(c mpe.CounterSnapshot) uint64 { return c.CommShrinks }},
	{"mpj_comm_agrees_total", "Completed fault-tolerant agreement rounds.", func(c mpe.CounterSnapshot) uint64 { return c.CommAgrees }},
	{"mpj_replay_decisions_recorded_total", "Nondeterministic decisions captured by the record log.", func(c mpe.CounterSnapshot) uint64 { return c.DecisionsRecorded }},
	{"mpj_replay_decisions_enforced_total", "Recorded decisions enforced during replay.", func(c mpe.CounterSnapshot) uint64 { return c.DecisionsEnforced }},
	{"mpj_replay_stalls_total", "Completions parked waiting for their recorded turn.", func(c mpe.CounterSnapshot) uint64 { return c.ReplayStalls }},
}

// WriteMetrics writes the Prometheus text exposition (format 0.0.4)
// for the given rank sources: one sample per counter per rank, plus
// cumulative histograms of the send/recv completion latencies when the
// rank is tracing.
func WriteMetrics(w io.Writer, sources []Source) {
	stats := make([]mpe.CounterSnapshot, len(sources))
	for i, src := range sources {
		stats[i] = src.Stats()
	}
	for _, def := range counterDefs {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", def.name, def.help, def.name)
		for i, src := range sources {
			fmt.Fprintf(w, "%s{rank=\"%d\",device=\"%s\"} %d\n",
				def.name, src.Rank, src.Device, def.get(stats[i]))
		}
	}
	writeHistFamily(w, sources, "mpj_send_latency_ns",
		"Send completion latency in nanoseconds, by message-size class.",
		func(s Source) func() mpe.HistSnapshot { return s.SendHist })
	writeHistFamily(w, sources, "mpj_recv_latency_ns",
		"Receive completion latency in nanoseconds, by message-size class.",
		func(s Source) func() mpe.HistSnapshot { return s.RecvHist })
	writeHistFamily(w, sources, "mpj_rma_fence_latency_ns",
		"RMA fence epoch latency in nanoseconds, by epoch-bytes class.",
		func(s Source) func() mpe.HistSnapshot { return s.RmaHist })
	writeHistFamily(w, sources, "mpj_recovery_latency_ns",
		"Fault-recovery (Shrink) latency in nanoseconds, by ranks-lost class.",
		func(s Source) func() mpe.HistSnapshot { return s.RecoveryHist })
	headed := false
	for _, src := range sources {
		if src.Replay == nil {
			continue
		}
		if !headed {
			fmt.Fprint(w, "# HELP mpj_replay_append_avg_ns Mean nanoseconds spent appending one decision record (recording overhead).\n# TYPE mpj_replay_append_avg_ns gauge\n")
			headed = true
		}
		st := src.Replay()
		fmt.Fprintf(w, "mpj_replay_append_avg_ns{rank=\"%d\",device=\"%s\",mode=\"%s\"} %g\n",
			src.Rank, src.Device, st.Mode, st.AvgAppendNS)
	}
}

func writeHistFamily(w io.Writer, sources []Source, name, help string, pick func(Source) func() mpe.HistSnapshot) {
	headed := false
	for _, src := range sources {
		get := pick(src)
		if get == nil {
			continue
		}
		if !headed {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
			headed = true
		}
		snap := get()
		for _, b := range snap.Buckets {
			labels := fmt.Sprintf("rank=\"%d\",device=\"%s\",size=\"%s\"", src.Rank, src.Device, b.Label)
			// mpe duration bucket d holds [2^d, 2^(d+1)) ns (d=0 also
			// catches <=1ns), so the cumulative Prometheus le is the
			// bucket's upper bound 2^(d+1).
			var cum uint64
			for d, c := range b.Counts {
				cum += c
				if c == 0 && d > 0 && d < len(b.Counts)-1 {
					continue // keep the exposition compact: only emit buckets that moved
				}
				fmt.Fprintf(w, "%s_bucket{%s,le=\"%d\"} %d\n", name, labels, uint64(1)<<uint(d+1), cum)
			}
			fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, labels, b.Count)
			fmt.Fprintf(w, "%s_sum{%s} %d\n", name, labels, b.SumNS)
			fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, b.Count)
		}
	}
}

// baseName strips histogram sample suffixes so every line of a family
// groups under its # TYPE name.
func baseName(metric string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(metric, suf) {
			return strings.TrimSuffix(metric, suf)
		}
	}
	return metric
}
