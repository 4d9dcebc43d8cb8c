package mpe

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is one entry of the Chrome trace_event format
// (chrome://tracing, https://ui.perfetto.dev). ts/dur are in
// microseconds; pid groups a rank's events into one track.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	ID    int64          `json:"id,omitempty"`
	BP    string         `json:"bp,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

func category(t EventType) string {
	switch t {
	case SendBegin, SendEnd, RecvPosted, RecvMatched, RecvUnexpected:
		return "request"
	case EagerOut, RendezvousRTS, RendezvousRTR, RendezvousData:
		return "protocol"
	case CollectivePhase, CollectiveAlgo:
		return "collective"
	case WaitanyPark, WaitanyWake:
		return "waitany"
	case PeerLost, FrameCorrupt, Aborted:
		return "failure"
	}
	return "other"
}

func eventName(ev Event) string {
	switch ev.Type {
	case CollectivePhase:
		return "Coll:" + CollName(ev.Tag)
	case CollectiveAlgo:
		return "Algo:" + CollName(ev.Tag) + "=" + AlgoName(ev.Peer)
	}
	return ev.Type.String()
}

// WriteChromeTrace merges the per-rank traces onto a shared timeline
// (aligned by each rank's epoch wall clock) and writes a Chrome
// trace_event JSON document. onlyRank < 0 keeps all ranks.
func WriteChromeTrace(w io.Writer, files []*TraceFile, onlyRank int) error {
	return writeChromeTrace(w, files, onlyRank, nil)
}

// ChromeExtra is one externally-sourced instant event merged into a
// Chrome trace export — mpjtrace injects per-rank replay decisions
// this way. AtNS places it on the merged timeline (decision logs carry
// no wall clock, so callers typically pass 0 and rely on the
// tie-break); the (Rank, Pos) pair is the decision's stable identity,
// so repeated exports over logs written by racing threads come out in
// the same order.
type ChromeExtra struct {
	AtNS int64
	Rank int
	Seq  uint64
	Pos  int // per-rank decision index — second sort key after rank
	Name string
	Cat  string
	Args map[string]any
}

// WriteChromeTraceExtras is WriteChromeTrace with extra events sorted
// into the merged stream by (timestamp, rank, seq, index).
func WriteChromeTraceExtras(w io.Writer, files []*TraceFile, onlyRank int, extras []ChromeExtra) error {
	var keyed []chromeKeyed
	for _, e := range extras {
		if onlyRank >= 0 && e.Rank != onlyRank {
			continue
		}
		keyed = append(keyed, chromeKeyed{
			atNS: e.AtNS, rank: e.Rank, seq: e.Seq, pos: e.Pos,
			ce: chromeEvent{
				Name: e.Name, Cat: e.Cat, Ph: "i", Scope: "t",
				TS: float64(e.AtNS) / 1e3, PID: e.Rank, TID: 0, Args: e.Args,
			},
		})
	}
	return writeChromeTrace(w, files, onlyRank, keyed)
}

// chromeKeyed pairs a renderable event with the sort key that makes
// repeated exports of the same trace byte-identical: timestamp, then
// rank, then the message sequence number, then ring position.
type chromeKeyed struct {
	atNS int64
	rank int
	seq  uint64
	pos  int
	ce   chromeEvent
}

// sortChromeEvents orders events deterministically: by merged-timeline
// timestamp, tie-broken on rank, then message seq, then the event's
// position in its rank's ring (a stable, reproducible order — map
// iteration or input interleaving can never change the output).
func sortChromeEvents(evs []chromeKeyed) {
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.atNS != b.atNS {
			return a.atNS < b.atNS
		}
		if a.rank != b.rank {
			return a.rank < b.rank
		}
		if a.seq != b.seq {
			return a.seq < b.seq
		}
		return a.pos < b.pos
	})
}

// writeChromeTrace renders the merged timeline; extra (already keyed)
// events — the -merge mode's flow arrows — are sorted into the same
// stream.
func writeChromeTrace(w io.Writer, files []*TraceFile, onlyRank int, extra []chromeKeyed) error {
	if len(files) == 0 {
		return fmt.Errorf("mpe: no trace files")
	}
	// The earliest epoch is t=0 of the merged timeline; each rank's
	// events shift by its wall-clock offset from it.
	base := files[0].EpochWallNS
	for _, tf := range files {
		if tf.EpochWallNS < base {
			base = tf.EpochWallNS
		}
	}
	var meta []chromeEvent
	var keyed []chromeKeyed
	for _, tf := range files {
		if onlyRank >= 0 && tf.Rank != onlyRank {
			continue
		}
		offset := tf.EpochWallNS - base
		meta = append(meta, chromeEvent{
			Name: "process_name", Ph: "M", PID: tf.Rank, TID: 0,
			Args: map[string]any{"name": fmt.Sprintf("rank %d (%s)", tf.Rank, tf.Device)},
		})
		for pos, ev := range tf.Events {
			ce := chromeEvent{
				Name: eventName(ev),
				Cat:  category(ev.Type),
				TS:   float64(ev.At+offset) / 1e3,
				PID:  tf.Rank,
				TID:  0,
				Args: map[string]any{},
			}
			if ev.Type == CollectiveAlgo {
				ce.Args["algo"] = AlgoName(ev.Peer)
			} else if ev.Peer >= 0 {
				ce.Args["peer"] = ev.Peer
			}
			if ev.Type != CollectivePhase && ev.Type != CollectiveAlgo {
				ce.Args["tag"] = ev.Tag
			}
			if ev.Ctx >= 0 {
				ce.Args["ctx"] = ev.Ctx
			}
			if ev.Bytes > 0 {
				ce.Args["bytes"] = ev.Bytes
			}
			if ev.Seq > 0 {
				ce.Args["seq"] = ev.Seq
			}
			if ev.Dur > 0 {
				ce.Ph = "X"
				ce.Dur = float64(ev.Dur) / 1e3
			} else {
				ce.Ph = "i"
				ce.Scope = "t"
			}
			keyed = append(keyed, chromeKeyed{
				atNS: ev.At + offset, rank: tf.Rank, seq: ev.Seq, pos: pos, ce: ce,
			})
		}
	}
	keyed = append(keyed, extra...)
	sortChromeEvents(keyed)
	out := meta
	for _, k := range keyed {
		out = append(out, k.ce)
	}
	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: out, DisplayTimeUnit: "ns"}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// WriteSummary writes a plain-text report of the merged traces:
// per-rank counters, event counts by type, and exact per-size-bucket
// latency percentiles computed from the retained completion spans.
func WriteSummary(w io.Writer, files []*TraceFile, onlyRank int) error {
	if len(files) == 0 {
		return fmt.Errorf("mpe: no trace files")
	}
	kept := files[:0:0]
	for _, tf := range files {
		if onlyRank < 0 || tf.Rank == onlyRank {
			kept = append(kept, tf)
		}
	}
	if len(kept) == 0 {
		return fmt.Errorf("mpe: no trace for rank %d", onlyRank)
	}

	fmt.Fprintf(w, "mpjtrace summary: %d rank(s)\n", len(kept))
	var total CounterSnapshot
	haveCounters := false
	for _, tf := range kept {
		fmt.Fprintf(w, "\nrank %d", tf.Rank)
		if tf.Device != "" {
			fmt.Fprintf(w, " (%s)", tf.Device)
		}
		fmt.Fprintf(w, ": %d events", len(tf.Events))
		if tf.Overwritten > 0 {
			fmt.Fprintf(w, " (+%d overwritten)", tf.Overwritten)
		}
		fmt.Fprintln(w)
		if tf.Counters != nil {
			haveCounters = true
			total = total.Add(*tf.Counters)
			c := tf.Counters
			fmt.Fprintf(w, "  counters: eager=%d rndv=%d bytesSent=%d matched=%d unexpected=%d\n",
				c.EagerSent, c.RndvSent, c.BytesSent, c.Matched, c.Unexpected)
			if c.CollSegsSent+c.CollSegsRecv > 0 {
				fmt.Fprintf(w, "  collectives: segsSent=%d segsRecv=%d\n",
					c.CollSegsSent, c.CollSegsRecv)
			}
			if c.RmaPuts+c.RmaGets+c.RmaAccs > 0 {
				fmt.Fprintf(w, "  rma: puts=%d gets=%d accs=%d bytes=%d\n",
					c.RmaPuts, c.RmaGets, c.RmaAccs, c.RmaBytes)
			}
			if c.SendBatches > 0 {
				fmt.Fprintf(w, "  send path: batches=%d frames=%d (%.2f frames/write, %.0f B/write)\n",
					c.SendBatches, c.FramesCoalesced,
					float64(c.FramesCoalesced)/float64(c.SendBatches),
					float64(c.SendBatchBytes)/float64(c.SendBatches))
			}
			if c.PeersLost+c.FramesCorrupt+c.RequestsFailed > 0 {
				fmt.Fprintf(w, "  failures: peersLost=%d framesCorrupt=%d requestsFailed=%d\n",
					c.PeersLost, c.FramesCorrupt, c.RequestsFailed)
			}
		}
		byType := map[EventType]int{}
		for _, ev := range tf.Events {
			byType[ev.Type]++
		}
		types := make([]EventType, 0, len(byType))
		for t := range byType {
			types = append(types, t)
		}
		sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
		for _, t := range types {
			fmt.Fprintf(w, "  %-16s %d\n", t, byType[t])
		}
	}
	if haveCounters && len(kept) > 1 {
		fmt.Fprintf(w, "\nall ranks: eager=%d rndv=%d bytesSent=%d matched=%d unexpected=%d\n",
			total.EagerSent, total.RndvSent, total.BytesSent, total.Matched, total.Unexpected)
		if total.CollSegsSent+total.CollSegsRecv > 0 {
			fmt.Fprintf(w, "all ranks collectives: segsSent=%d segsRecv=%d\n",
				total.CollSegsSent, total.CollSegsRecv)
		}
		if total.RmaPuts+total.RmaGets+total.RmaAccs > 0 {
			fmt.Fprintf(w, "all ranks rma: puts=%d gets=%d accs=%d bytes=%d\n",
				total.RmaPuts, total.RmaGets, total.RmaAccs, total.RmaBytes)
		}
		if total.SendBatches > 0 {
			fmt.Fprintf(w, "all ranks send path: batches=%d frames=%d (%.2f frames/write, %.0f B/write)\n",
				total.SendBatches, total.FramesCoalesced,
				float64(total.FramesCoalesced)/float64(total.SendBatches),
				float64(total.SendBatchBytes)/float64(total.SendBatches))
		}
		if total.PeersLost+total.FramesCorrupt+total.RequestsFailed > 0 {
			fmt.Fprintf(w, "all ranks failures: peersLost=%d framesCorrupt=%d requestsFailed=%d\n",
				total.PeersLost, total.FramesCorrupt, total.RequestsFailed)
		}
	}

	writeLatencyTable(w, kept, SendEnd, "send completion latency")
	writeLatencyTable(w, kept, RecvMatched, "recv completion latency")
	writeLatencyTable(w, kept, RmaFence, "rma fence epoch latency")
	writeCollectives(w, kept)
	writeCollAlgos(w, kept)
	return nil
}

// writeLatencyTable prints exact percentiles per message-size bucket
// for the given span type, computed by sorting the retained span
// durations (the histograms carry the same data with bucket
// resolution; the retained events allow exact numbers).
func writeLatencyTable(w io.Writer, files []*TraceFile, typ EventType, title string) {
	bySize := map[int][]int64{}
	for _, tf := range files {
		for _, ev := range tf.Events {
			if ev.Type == typ && ev.Dur > 0 {
				b := SizeBucket(ev.Bytes)
				bySize[b] = append(bySize[b], ev.Dur)
			}
		}
	}
	if len(bySize) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%s (per message-size bucket):\n", title)
	fmt.Fprintf(w, "  %-8s %8s %12s %12s %12s\n", "size", "count", "p50", "p95", "max")
	for b := 0; b < sizeBucketCount; b++ {
		durs := bySize[b]
		if len(durs) == 0 {
			continue
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		p50 := durs[len(durs)*50/100]
		p95 := durs[len(durs)*95/100]
		max := durs[len(durs)-1]
		fmt.Fprintf(w, "  %-8s %8d %12s %12s %12s\n",
			SizeBucketLabel(b), len(durs), fmtNS(p50), fmtNS(p95), fmtNS(max))
	}
}

func writeCollectives(w io.Writer, files []*TraceFile) {
	type stat struct {
		n   int
		sum int64
		max int64
	}
	byKind := map[int32]*stat{}
	for _, tf := range files {
		for _, ev := range tf.Events {
			if ev.Type != CollectivePhase {
				continue
			}
			s := byKind[ev.Tag]
			if s == nil {
				s = &stat{}
				byKind[ev.Tag] = s
			}
			s.n++
			s.sum += ev.Dur
			if ev.Dur > s.max {
				s.max = ev.Dur
			}
		}
	}
	if len(byKind) == 0 {
		return
	}
	kinds := make([]int32, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	fmt.Fprintf(w, "\ncollective phases (all ranks):\n")
	fmt.Fprintf(w, "  %-14s %8s %12s %12s\n", "collective", "calls", "mean", "max")
	for _, k := range kinds {
		s := byKind[k]
		fmt.Fprintf(w, "  %-14s %8d %12s %12s\n",
			CollName(k), s.n, fmtNS(s.sum/int64(s.n)), fmtNS(s.max))
	}
}

// writeCollAlgos tabulates which algorithm variant each collective
// selected (CollectiveAlgo events), per kind, with call counts and the
// payload-size range the choice covered.
func writeCollAlgos(w io.Writer, files []*TraceFile) {
	type key struct {
		kind int32
		algo int32
	}
	type stat struct {
		n        int
		minBytes int64
		maxBytes int64
	}
	byChoice := map[key]*stat{}
	for _, tf := range files {
		for _, ev := range tf.Events {
			if ev.Type != CollectiveAlgo {
				continue
			}
			k := key{kind: ev.Tag, algo: ev.Peer}
			s := byChoice[k]
			if s == nil {
				s = &stat{minBytes: ev.Bytes, maxBytes: ev.Bytes}
				byChoice[k] = s
			}
			s.n++
			if ev.Bytes < s.minBytes {
				s.minBytes = ev.Bytes
			}
			if ev.Bytes > s.maxBytes {
				s.maxBytes = ev.Bytes
			}
		}
	}
	if len(byChoice) == 0 {
		return
	}
	keys := make([]key, 0, len(byChoice))
	for k := range byChoice {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].kind != keys[j].kind {
			return keys[i].kind < keys[j].kind
		}
		return keys[i].algo < keys[j].algo
	})
	fmt.Fprintf(w, "\ncollective algorithm choices (all ranks):\n")
	fmt.Fprintf(w, "  %-14s %-26s %8s %20s\n", "collective", "algorithm", "calls", "payload bytes")
	for _, k := range keys {
		s := byChoice[k]
		sizes := fmt.Sprintf("%d", s.minBytes)
		if s.maxBytes != s.minBytes {
			sizes = fmt.Sprintf("%d-%d", s.minBytes, s.maxBytes)
		}
		fmt.Fprintf(w, "  %-14s %-26s %8d %20s\n",
			CollName(k.kind), AlgoName(k.algo), s.n, sizes)
	}
}

func fmtNS(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
