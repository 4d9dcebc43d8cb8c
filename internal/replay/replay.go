// Package replay implements deterministic record/replay debugging for
// the MPJ runtime (ROADMAP "record per-rank match decisions and replay
// a failed chaos run"). A recording Session captures every
// nondeterministic decision a rank makes — wildcard (ANY_SOURCE /
// ANY_TAG) match resolutions keyed by the devcore (src,seq) stamps,
// completion-queue pop order, hybriddev dual-post claim arbitration,
// ULFM agreement outcomes and the chaos fault-plan seed — into a
// compact per-rank decision log (rank-N.decisions, JSON lines). A
// replaying Session loads such a log and hands the recorded outcomes
// back to devcore, which *enforces* them: wildcard receives are
// narrowed to the recorded (src,tag) and hold until the recorded
// message arrives, completion pops are reordered to the logged
// sequence, and any mismatch surfaces as a typed divergence error
// naming the first bad decision.
//
// The package is intentionally dependency-free (standard library only)
// so every layer — xdev, devcore, the devices, core — can import it
// without cycles. Decisions are buffered in memory per stream and
// written sorted at Close: append order across streams is racy even
// under enforcement (two threads resolve decisions concurrently), but
// the per-stream indices are deterministic, so sorting by
// (kind, stream, index) makes a record log and its replay-observed log
// byte-identical whenever the replay ran divergence-free.
package replay

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// ErrReplayDiverged is the sentinel wrapped by every DivergenceError.
var ErrReplayDiverged = errors.New("replay: diverged from recording")

// DivergenceError reports the first decision where a replaying run
// departed from its recording.
type DivergenceError struct {
	Rank     int    // rank that observed the divergence
	Op       string // operation ("wildcard", "pop", "claim", "agree", "meta")
	Expected string // recorded outcome
	Observed string // what this run did instead
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("replay diverged: rank %d %s: expected %s, observed %s",
		e.Rank, e.Op, e.Expected, e.Observed)
}

func (e *DivergenceError) Unwrap() error { return ErrReplayDiverged }

// Record is one decision-log line. Field meaning varies by Kind:
//
//	meta     — Dev=device, Src=rank, Tag=world size, Note=chaos seed
//	wildcard — Key=pattern, Op="match"|"open", Src/Tag/Seq=resolution
//	claim    — Idx=claim index, Dev=winning core, Src/Tag/Seq=resolution
//	pop      — Idx=pop order, Dev/Op/Src/Tag/Ctx/Seq=request identity
//	agree    — Key=context stream, Val=agreed flag word
//	diverge  — Note=first-divergence report (never enforced, CI marker)
//
// No wall-clock timestamps: records must be byte-identical across runs.
type Record struct {
	Kind string `json:"k"`
	Key  string `json:"key,omitempty"`
	Idx  int    `json:"i"`
	Dev  string `json:"dev,omitempty"`
	Op   string `json:"op,omitempty"`
	Src  int64  `json:"src"`
	Tag  int64  `json:"tag"`
	Ctx  int64  `json:"ctx"`
	Seq  uint64 `json:"seq"`
	Val  int64  `json:"val,omitempty"`
	Note string `json:"note,omitempty"`
}

// kindRank fixes the on-disk section order of the sorted log.
func kindRank(kind string) int {
	switch kind {
	case "meta":
		return 0
	case "wildcard":
		return 1
	case "claim":
		return 2
	case "agree":
		return 3
	case "pop":
		return 4
	default: // diverge last
		return 5
	}
}

// PopKey identifies a completed request across runs: the creating
// core, the request direction, and the stamped envelope. Two requests
// with equal keys are interchangeable (an equivalence class the
// enforcement treats as FIFO).
type PopKey struct {
	Dev string
	Op  string // "send" | "recv"
	Src int64
	Tag int64
	Ctx int64
	Seq uint64
}

func (k PopKey) String() string {
	return fmt.Sprintf("%s %s src=%d tag=%d ctx=%d seq=%d",
		k.Dev, k.Op, k.Src, k.Tag, k.Ctx, k.Seq)
}

// Config parameterizes Open.
type Config struct {
	RecordDir string // write rank-N.decisions here ("" = no recording)
	ReplayDir string // load + enforce rank-N.decisions from here ("" = no replay)
	Rank      int
	Size      int
	Device    string
	ChaosSeed string // fault-plan seed (MPJ_CHAOS_SEED), "" if unset
}

// seqKey identifies one deterministic send-sequence stream. Scoping
// the counter to (dev,dst,ctx,tag) makes the stamped seq a function of
// the per-stream send count, so racing sender threads with
// interchangeable envelopes draw interchangeable stamps.
type seqKey struct {
	dev string
	dst uint64
	ctx int32
	tag int32
}

// Wildcard is one open wildcard-receive decision. When Enforce is set
// the replaying devcore narrows the posted pattern to (Src, Tag) and
// verifies the matched stamp against Seq.
type Wildcard struct {
	s       *Session
	out     *Record
	in      *Record
	Enforce bool
	Src     int64
	Tag     int32
	Seq     uint64
}

// Claim is one hybriddev dual-post arbitration decision. When Enforce
// is set the replaying device single-posts into core Dev with the
// pattern narrowed to (Src, Tag).
type Claim struct {
	s       *Session
	out     *Record
	in      *Record
	Idx     int
	Enforce bool
	Dev     string
	Src     int64
	Tag     int32
	Seq     uint64
}

// Session is one rank's record/replay state. A nil *Session is inert:
// every query method reports inactive. The same Session may be
// installed on several cores (hybriddev shares one across its smpdev
// and niodev halves so their merged completion stream is enforced as
// one pop sequence).
type Session struct {
	rank      int
	dir       string
	replaying bool
	timeout   time.Duration

	mu     sync.Mutex
	out    map[string][]*Record
	in     map[string][]*Record
	cursor map[string]int

	// Send-sequence streams sit under their own lock: NextSeq runs on
	// every send and must not contend with decision appends.
	seqMu  sync.Mutex
	seqs   map[seqKey]uint64
	claimN int
	div    *DivergenceError
	closed bool

	// Pop enforcement: popMu serializes the designated peeker;
	// popHeld parks completions that arrived before their turn.
	popMu   sync.Mutex
	popHeld map[PopKey][]any
	heldN   atomic.Int64

	recorded atomic.Uint64
	enforced atomic.Uint64
	stalls   atomic.Uint64
	appendNS atomic.Int64
	appendN  atomic.Int64
}

// DirsFromEnv reads the MPJ_RECORD / MPJ_REPLAY environment variables.
func DirsFromEnv() (record, replay string) {
	return os.Getenv("MPJ_RECORD"), os.Getenv("MPJ_REPLAY")
}

// Open creates a Session for one rank. Returns (nil, nil) when neither
// directory is set. In replay mode the recorded meta header is checked
// against this run's topology and chaos seed; a mismatch is an
// immediate divergence.
func Open(cfg Config) (*Session, error) {
	if cfg.RecordDir == "" && cfg.ReplayDir == "" {
		return nil, nil
	}
	s := &Session{
		rank:      cfg.Rank,
		dir:       cfg.RecordDir,
		replaying: cfg.ReplayDir != "",
		timeout:   10 * time.Second,
		out:       make(map[string][]*Record),
		in:        make(map[string][]*Record),
		cursor:    make(map[string]int),
		seqs:      make(map[seqKey]uint64),
		popHeld:   make(map[PopKey][]any),
	}
	if ms, err := strconv.Atoi(os.Getenv("MPJ_REPLAY_TIMEOUT_MS")); err == nil && ms > 0 {
		s.timeout = time.Duration(ms) * time.Millisecond
	}
	meta := &Record{
		Kind: "meta", Key: "meta",
		Dev: cfg.Device, Src: int64(cfg.Rank), Tag: int64(cfg.Size),
		Note: cfg.ChaosSeed,
	}
	if s.replaying {
		if err := s.load(filepath.Join(cfg.ReplayDir, logName(cfg.Rank))); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		if rec := s.takeLocked("meta"); rec != nil {
			if rec.Dev != meta.Dev || rec.Tag != meta.Tag || rec.Note != meta.Note {
				return nil, s.Diverge("meta",
					fmt.Sprintf("device=%s size=%d seed=%q", rec.Dev, rec.Tag, rec.Note),
					fmt.Sprintf("device=%s size=%d seed=%q", meta.Dev, meta.Tag, meta.Note))
			}
		}
	}
	if s.dir != "" {
		if err := os.MkdirAll(s.dir, 0o777); err != nil {
			return nil, fmt.Errorf("record: %w", err)
		}
		s.out["meta"] = append(s.out["meta"], meta)
	}
	return s, nil
}

func logName(rank int) string { return fmt.Sprintf("rank-%d.decisions", rank) }

// LogName returns the decision-log filename for a rank (for tools).
func LogName(rank int) string { return logName(rank) }

func (s *Session) load(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		rec := &Record{}
		if err := json.Unmarshal(line, rec); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		s.in[rec.Key] = append(s.in[rec.Key], rec)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for _, recs := range s.in {
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].Idx < recs[j].Idx })
	}
	return nil
}

// Recording reports whether decisions are being written.
func (s *Session) Recording() bool { return s != nil && s.dir != "" }

// Replaying reports whether recorded decisions are being enforced.
func (s *Session) Replaying() bool { return s != nil && s.replaying }

// Rank returns the owning rank.
func (s *Session) Rank() int { return s.rank }

// PopTimeout is how long a replaying Peek waits for the recorded
// completion before declaring divergence.
func (s *Session) PopTimeout() time.Duration { return s.timeout }

// takeLocked consumes the next replay record of a stream (nil when
// exhausted). Caller need not hold mu for Open-time use; concurrent
// use goes through take.
func (s *Session) takeLocked(key string) *Record {
	recs := s.in[key]
	cur := s.cursor[key]
	if cur >= len(recs) {
		return nil
	}
	s.cursor[key] = cur + 1
	return recs[cur]
}

// appendOut buffers one outgoing record on stream key, assigning its
// per-stream index, and accounts the append cost for the overhead
// gauge. Caller must hold s.mu.
func (s *Session) appendOut(key string, rec *Record) {
	t0 := time.Now()
	rec.Key = key
	rec.Idx = len(s.out[key])
	s.out[key] = append(s.out[key], rec)
	s.recorded.Add(1)
	s.appendNS.Add(time.Since(t0).Nanoseconds())
	s.appendN.Add(1)
}

// Diverge records the first divergence (sticky) and returns it. Later
// calls return the original error so every caller reports the same
// first mismatch.
func (s *Session) Diverge(op, expected, observed string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.divergeLocked(op, expected, observed)
}

func (s *Session) divergeLocked(op, expected, observed string) error {
	if s.div == nil {
		s.div = &DivergenceError{Rank: s.rank, Op: op, Expected: expected, Observed: observed}
		if s.dir != "" {
			s.out["zz-diverge"] = append(s.out["zz-diverge"], &Record{
				Kind: "diverge", Key: "zz-diverge", Note: s.div.Error(),
			})
		}
	}
	return s.div
}

// Diverged returns the sticky first divergence, or nil.
func (s *Session) Diverged() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.div == nil {
		return nil
	}
	return s.div
}

// ---- send-sequence determinism ----

// NextSeq draws the next deterministic send sequence number for the
// (dev,dst,ctx,tag) stream. The stamp composes a 32-bit envelope hash
// with the per-stream count so it stays unique per (src,dst) pair
// across concurrently pending streams — the devices' PendingKey
// protocol state requires that — while remaining a pure function of
// per-stream send order.
// envHash is fnv-32a over the little-endian bytes of (ctx, tag),
// inlined and allocation-free: NextSeq runs once per send, so this is
// the recording subsystem's hottest code (BenchmarkRecordOverhead).
func envHash(ctx, tag int32) uint32 {
	h := uint32(2166136261)
	for i := 0; i < 4; i++ {
		h = (h ^ uint32(byte(ctx>>(8*i)))) * 16777619
	}
	for i := 0; i < 4; i++ {
		h = (h ^ uint32(byte(tag>>(8*i)))) * 16777619
	}
	return h
}

func (s *Session) NextSeq(dev string, dst uint64, ctx, tag int32) uint64 {
	k := seqKey{dev: dev, dst: dst, ctx: ctx, tag: tag}
	s.seqMu.Lock()
	n := s.seqs[k] + 1
	s.seqs[k] = n
	s.seqMu.Unlock()
	return uint64(envHash(ctx, tag))<<32 | (n & 0xffffffff)
}

// ---- wildcard decisions ----

// WildcardKey builds the stream key for a posted wildcard pattern
// (src < 0 means ANY_SOURCE, tag < 0 means ANY_TAG).
func WildcardKey(dev string, ctx, tag int32, src int64) string {
	return fmt.Sprintf("w:%s:%d:%d:%d", dev, ctx, tag, src)
}

// OpenWildcard opens a decision for a newly posted wildcard receive.
// In record mode an unresolved placeholder is buffered (so stream
// indices stay aligned even for receives that never match); in replay
// mode the next recorded resolution for the same pattern stream is
// consumed and returned for enforcement.
func (s *Session) OpenWildcard(dev string, ctx, tag int32, src int64) *Wildcard {
	if s == nil {
		return nil
	}
	key := WildcardKey(dev, ctx, tag, src)
	w := &Wildcard{s: s}
	s.mu.Lock()
	if s.replaying {
		if rec := s.takeLocked(key); rec != nil && rec.Op == "match" {
			w.in = rec
			w.Enforce = true
			w.Src = rec.Src
			w.Tag = int32(rec.Tag)
			w.Seq = rec.Seq
			s.enforced.Add(1)
		}
	}
	if s.dir != "" {
		w.out = &Record{Kind: "wildcard", Op: "open", Src: -1, Tag: -1}
		s.appendOut(key, w.out)
	}
	s.mu.Unlock()
	return w
}

// Resolve stamps the matched (src,tag,seq) onto the decision and, when
// enforcing, verifies it against the recording. A non-nil error is the
// session's divergence report; the caller fails the receive with it.
func (w *Wildcard) Resolve(src int64, tag int32, seq uint64) error {
	if w == nil {
		return nil
	}
	s := w.s
	s.mu.Lock()
	if w.out != nil {
		w.out.Op = "match"
		w.out.Src = src
		w.out.Tag = int64(tag)
		w.out.Seq = seq
	}
	var err error
	if w.Enforce && (w.Src != src || w.Seq != seq) {
		err = s.divergeLocked("wildcard",
			fmt.Sprintf("src=%d tag=%d seq=%d", w.Src, w.Tag, w.Seq),
			fmt.Sprintf("src=%d tag=%d seq=%d", src, tag, seq))
	}
	s.mu.Unlock()
	return err
}

// ---- hybriddev claim decisions ----

// OpenClaim opens the next dual-post arbitration decision. Claim
// indices are assigned in IRecv posting order, which is deterministic
// per rank thread.
func (s *Session) OpenClaim() *Claim {
	if s == nil {
		return nil
	}
	c := &Claim{s: s}
	s.mu.Lock()
	c.Idx = s.claimN
	s.claimN++
	if s.replaying {
		recs := s.in["claim"]
		i := sort.Search(len(recs), func(i int) bool { return recs[i].Idx >= c.Idx })
		if i < len(recs) && recs[i].Idx == c.Idx && recs[i].Op == "match" {
			rec := recs[i]
			c.in = rec
			c.Enforce = true
			c.Dev = rec.Dev
			c.Src = rec.Src
			c.Tag = int32(rec.Tag)
			c.Seq = rec.Seq
			s.enforced.Add(1)
		}
	}
	if s.dir != "" {
		// Idx is the arbitration index (claimN), not the stream length:
		// both advance together, and the explicit index is what replay
		// binary-searches on.
		c.out = &Record{Kind: "claim", Key: "claim", Op: "open", Idx: c.Idx, Src: -1, Tag: -1}
		s.out["claim"] = append(s.out["claim"], c.out)
		s.recorded.Add(1)
	}
	s.mu.Unlock()
	return c
}

// Resolve stamps the winning core and matched envelope onto the claim
// decision, verifying against the recording when enforcing.
func (c *Claim) Resolve(dev string, src int64, tag int32, seq uint64) error {
	if c == nil {
		return nil
	}
	s := c.s
	s.mu.Lock()
	if c.out != nil {
		c.out.Op = "match"
		c.out.Dev = dev
		c.out.Src = src
		c.out.Tag = int64(tag)
		c.out.Seq = seq
	}
	var err error
	if c.Enforce && (c.Dev != dev || c.Src != src || c.Seq != seq) {
		err = s.divergeLocked("claim",
			fmt.Sprintf("idx=%d dev=%s src=%d seq=%d", c.Idx, c.Dev, c.Src, c.Seq),
			fmt.Sprintf("idx=%d dev=%s src=%d seq=%d", c.Idx, dev, src, seq))
	}
	s.mu.Unlock()
	return err
}

// ---- completion-pop order ----

// LockPops acquires the pop-enforcement mutex, serializing the
// designated peeker across every core sharing this session. Returns
// the unlock function.
func (s *Session) LockPops() func() {
	s.popMu.Lock()
	return s.popMu.Unlock
}

// NextPop peeks the next recorded pop without consuming it. ok is
// false when the recorded pop stream is exhausted (enforcement ends,
// Peek passes through). Caller holds LockPops.
func (s *Session) NextPop() (PopKey, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := s.in["pop"]
	cur := s.cursor["pop"]
	if !s.replaying || cur >= len(recs) {
		return PopKey{}, false
	}
	r := recs[cur]
	return PopKey{Dev: r.Dev, Op: r.Op, Src: r.Src, Tag: r.Tag, Ctx: r.Ctx, Seq: r.Seq}, true
}

// PopObserved logs the pop that this run performed and advances the
// replay cursor past it. Caller holds LockPops.
func (s *Session) PopObserved(k PopKey) {
	s.mu.Lock()
	if s.replaying {
		if cur := s.cursor["pop"]; cur < len(s.in["pop"]) {
			s.cursor["pop"] = cur + 1
		}
	}
	if s.dir != "" {
		s.appendOut("pop", &Record{
			Kind: "pop", Dev: k.Dev, Op: k.Op,
			Src: k.Src, Tag: k.Tag, Ctx: k.Ctx, Seq: k.Seq,
		})
	}
	s.mu.Unlock()
}

// Hold parks a completion that popped before its recorded turn.
// Caller holds LockPops.
func (s *Session) Hold(k PopKey, v any) {
	s.popHeld[k] = append(s.popHeld[k], v)
	s.heldN.Add(1)
	s.stalls.Add(1)
}

// TakeHeld releases the oldest held completion for k, if any. Caller
// holds LockPops.
func (s *Session) TakeHeld(k PopKey) (any, bool) {
	q := s.popHeld[k]
	if len(q) == 0 {
		return nil, false
	}
	v := q[0]
	if len(q) == 1 {
		delete(s.popHeld, k)
	} else {
		s.popHeld[k] = q[1:]
	}
	s.heldN.Add(-1)
	return v, true
}

// TakeAnyHeld drains one held completion in an arbitrary order — the
// post-divergence / shutdown escape hatch so held requests are still
// delivered. Caller holds LockPops.
func (s *Session) TakeAnyHeld() (PopKey, any, bool) {
	for k := range s.popHeld {
		v, _ := s.TakeHeld(k)
		return k, v, true
	}
	return PopKey{}, nil, false
}

// Stalls reports how many completions were held past their pop turn.
func (s *Session) Stalls() uint64 { return s.stalls.Load() }

// ---- ULFM agreement ----

// Agree records (and in replay verifies) one agreement outcome on the
// given context stream. A non-nil error is the divergence report.
func (s *Session) Agree(ctx int64, val int64) error {
	if s == nil {
		return nil
	}
	key := "agree:" + strconv.FormatInt(ctx, 10)
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.replaying {
		if rec := s.takeLocked(key); rec != nil {
			s.enforced.Add(1)
			if rec.Val != val {
				err = s.divergeLocked("agree",
					fmt.Sprintf("ctx=%d val=%d", ctx, rec.Val),
					fmt.Sprintf("ctx=%d val=%d", ctx, val))
			}
		}
	}
	if s.dir != "" {
		s.appendOut(key, &Record{Kind: "agree", Ctx: ctx, Val: val})
	}
	return err
}

// ---- counters / state ----

// Totals reports the session-lifetime decision counts.
func (s *Session) Totals() (recorded, enforced, stalls uint64) {
	return s.recorded.Load(), s.enforced.Load(), s.stalls.Load()
}

// State is the introspection snapshot exposed on /introspect and the
// Prometheus record-overhead gauge.
type State struct {
	Mode        string  `json:"mode"`
	Rank        int     `json:"rank"`
	Recorded    uint64  `json:"decisions_recorded"`
	Enforced    uint64  `json:"decisions_enforced"`
	Stalls      uint64  `json:"replay_stalls"`
	HeldPops    int64   `json:"held_pops"`
	AvgAppendNS float64 `json:"record_append_avg_ns"`
	Diverged    string  `json:"diverged,omitempty"`
}

// State snapshots the session.
func (s *Session) State() State {
	if s == nil {
		return State{Mode: "off"}
	}
	mode := "record"
	if s.replaying {
		mode = "replay"
		if s.dir != "" {
			mode = "replay+record"
		}
	}
	st := State{
		Mode:     mode,
		Rank:     s.rank,
		Recorded: s.recorded.Load(),
		Enforced: s.enforced.Load(),
		Stalls:   s.stalls.Load(),
		HeldPops: s.heldN.Load(),
	}
	if n := s.appendN.Load(); n > 0 {
		st.AvgAppendNS = float64(s.appendNS.Load()) / float64(n)
	}
	s.mu.Lock()
	if s.div != nil {
		st.Diverged = s.div.Error()
	}
	s.mu.Unlock()
	return st
}

// ---- log writing ----

// Close flushes the decision log (sorted by kind section, stream key,
// then per-stream index) and returns the sticky divergence if any.
// Close is idempotent.
func (s *Session) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		if s.div != nil {
			return s.div
		}
		return nil
	}
	s.closed = true
	if s.dir != "" {
		if err := s.writeLocked(); err != nil {
			return err
		}
	}
	if s.div != nil {
		return s.div
	}
	return nil
}

func (s *Session) writeLocked() error {
	type stream struct {
		key  string
		recs []*Record
	}
	streams := make([]stream, 0, len(s.out))
	for k, recs := range s.out {
		streams = append(streams, stream{k, recs})
	}
	sort.Slice(streams, func(i, j int) bool {
		a, b := streams[i], streams[j]
		ra, rb := kindRank(a.recs[0].Kind), kindRank(b.recs[0].Kind)
		if ra != rb {
			return ra < rb
		}
		return a.key < b.key
	})
	f, err := os.Create(filepath.Join(s.dir, logName(s.rank)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, st := range streams {
		for _, rec := range st.recs {
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadLog parses a decision log for tooling (mpjtrace -decisions /
// -replay diffing).
func ReadLog(path string) ([]*Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []*Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		rec := &Record{}
		if err := json.Unmarshal(sc.Bytes(), rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}
