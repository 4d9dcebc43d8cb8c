package rank

import (
	"time"

	"mpj/bench/stats"
)

// The benchmark's own span recorder (choosing-metrics §4): spans are
// taken from the benchmark's files, around calls into the library, kept
// in memory, and handed back in the rank's report. A nil *Recorder is
// the untraced run: Now and End then cost one nil check.

// Span kinds. opSpan is the parent of every other span of one op.
const (
	opSpan = iota
	sendCall
	recvWait
	waitAny
	bcastCall
	allreduceCall
	barrierCall
	nSpanKinds
)

// SpanNames maps a span kind to its name in reports and trace files.
var SpanNames = [nSpanKinds]string{"op", "send_call", "recv_wait", "waitany", "bcast", "allreduce", "barrier"}

// fullSpans is how many complete spans a recorder keeps for the trace
// file; every span still feeds the per-kind duration samplers.
const fullSpans = 512

// Span is one recorded interval. Spans of one op share Op; Parent is
// the kind name of the span that caused this one ("" for an op span).
type Span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Op      int64  `json:"op"`
	Rank    int    `json:"rank"`
	Thread  int    `json:"thread"`
	StartNs int64  `json:"start_ns"` // since the rank's epoch
	EndNs   int64  `json:"end_ns"`
}

var epoch = time.Now()

// Recorder collects the spans of one goroutine of one rank.
type Recorder struct {
	rank, thread int
	dur          [nSpanKinds]*stats.Sampler
	full         []Span
}

// NewRecorder returns a recorder for the given rank and goroutine.
func NewRecorder(rank, thread int) *Recorder {
	r := &Recorder{rank: rank, thread: thread, full: make([]Span, 0, fullSpans)}
	for k := range r.dur {
		r.dur[k] = stats.NewSampler(1 << 15)
	}
	return r
}

// Now returns the span clock, 0 when not recording.
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(epoch))
}

// End closes a span of the given kind that began at start (a Now
// value) and returns the end time, so back-to-back spans share a clock
// reading.
func (r *Recorder) End(kind int, op, start int64) int64 {
	if r == nil {
		return 0
	}
	end := int64(time.Since(epoch))
	r.dur[kind].Add(float64(end-start) / 1e3)
	if len(r.full) < cap(r.full) {
		s := Span{Name: SpanNames[kind], Op: op, Rank: r.rank, Thread: r.thread, StartNs: start, EndNs: end}
		if kind != opSpan {
			s.Parent = SpanNames[opSpan]
		}
		r.full = append(r.full, s)
	}
	return end
}

// mergeSpans folds recorders into per-kind duration summaries (µs) and
// one list of complete spans.
func mergeSpans(recs []*Recorder) (map[string]stats.Summary, []Span) {
	sums := make(map[string]stats.Summary)
	var full []Span
	for k := 0; k < nSpanKinds; k++ {
		var v []float64
		n := 0
		for _, r := range recs {
			if r != nil {
				v = append(v, r.dur[k].Values()...)
				n += r.dur[k].N()
			}
		}
		if n > 0 {
			sums[SpanNames[k]] = stats.Summarize(v, n)
		}
	}
	for _, r := range recs {
		if r != nil {
			full = append(full, r.full...)
		}
	}
	return sums, full
}
