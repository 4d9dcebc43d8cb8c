package mpj

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mpj/internal/replay"
)

// replayRoundTrip records a run of body, replays it while re-recording
// the observed decisions, and requires (a) a divergence-free replay
// and (b) per-rank decision logs byte-identical to the recording. It
// returns the recording's directory.
func replayRoundTrip(t *testing.T, n int, opts Options, body func(p *Process) error) string {
	t.Helper()
	recDir, obsDir := t.TempDir(), t.TempDir()

	rec := opts
	rec.RecordDir = recDir
	if err := RunLocalOpts(n, &rec, body); err != nil {
		t.Fatalf("record run: %v", err)
	}

	rep := opts
	rep.ReplayDir = recDir
	rep.RecordDir = obsDir
	if err := RunLocalOpts(n, &rep, body); err != nil {
		t.Fatalf("replay run: %v", err)
	}

	for r := 0; r < n; r++ {
		name := replay.LogName(r)
		recorded, err := os.ReadFile(filepath.Join(recDir, name))
		if err != nil {
			t.Fatalf("rank %d recording: %v", r, err)
		}
		observed, err := os.ReadFile(filepath.Join(obsDir, name))
		if err != nil {
			t.Fatalf("rank %d observed log: %v", r, err)
		}
		if !bytes.Equal(recorded, observed) {
			t.Errorf("rank %d: replay-observed log differs from recording\nrecorded:\n%s\nobserved:\n%s",
				r, recorded, observed)
		}
	}
	return recDir
}

// replayDevices is the matrix every wildcard shape replays on. ibisdev
// rides smpdev transparently; hybrid composes smpdev and niodev.
var replayDevices = []struct {
	name string
	opts Options
}{
	{"niodev", Options{Device: "niodev"}},
	{"smpdev", Options{Device: "smpdev"}},
	{"mxdev", Options{Device: "mxdev"}},
	{"ibisdev", Options{Device: "ibisdev"}},
	{"hybrid", Options{Device: "hybrid", NodeMap: "0,0,1,1"}},
}

// TestReplayAnySource records and replays a many-to-one ANY_SOURCE
// pattern: rank 0 drains one message per peer in whatever order the
// senders race in, and the replay must reproduce that order exactly.
func TestReplayAnySource(t *testing.T) {
	const msgs = 8
	body := func(p *Process) error {
		w := p.World()
		if w.Rank() == 0 {
			buf := make([]int32, 2)
			for i := 0; i < (w.Size()-1)*msgs; i++ {
				st, err := w.Recv(buf, 0, 2, INT, AnySource, 7)
				if err != nil {
					return err
				}
				if int(buf[0]) != st.Source {
					return fmt.Errorf("payload says src %d, status says %d", buf[0], st.Source)
				}
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			if err := w.Send([]int32{int32(w.Rank()), int32(i)}, 0, 2, INT, 0, 7); err != nil {
				return err
			}
		}
		return nil
	}
	for _, d := range replayDevices {
		t.Run(d.name, func(t *testing.T) {
			replayRoundTrip(t, 4, d.opts, body)
		})
	}
}

// TestReplayAnyTag replays an ANY_TAG shape: two sender threads on
// each peer race distinct tags at rank 0.
func TestReplayAnyTag(t *testing.T) {
	const perTag = 4
	body := func(p *Process) error {
		w := p.World()
		if w.Rank() == 0 {
			buf := make([]int32, 1)
			for src := 1; src < w.Size(); src++ {
				for i := 0; i < 2*perTag; i++ {
					if _, err := w.Recv(buf, 0, 1, INT, src, AnyTag); err != nil {
						return err
					}
				}
			}
			return nil
		}
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				tag := 100 + g
				for i := 0; i < perTag; i++ {
					if err := w.Send([]int32{int32(tag)}, 0, 1, INT, 0, tag); err != nil {
						errs[g] = err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		return errors.Join(errs...)
	}
	for _, d := range replayDevices {
		opts := d.opts
		if opts.NodeMap != "" {
			opts.NodeMap = "0,0,1" // 3-rank job
		}
		t.Run(d.name, func(t *testing.T) {
			replayRoundTrip(t, 3, opts, body)
		})
	}
}

// TestReplayAnySourceAnyTag replays the fully wild shape with racing
// sender threads across ranks and tags.
func TestReplayAnySourceAnyTag(t *testing.T) {
	const perThread = 3
	body := func(p *Process) error {
		w := p.World()
		if w.Rank() == 0 {
			buf := make([]int32, 1)
			total := (w.Size() - 1) * 2 * perThread
			for i := 0; i < total; i++ {
				if _, err := w.Recv(buf, 0, 1, INT, AnySource, AnyTag); err != nil {
					return err
				}
			}
			return nil
		}
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				tag := 10*w.Rank() + g
				for i := 0; i < perThread; i++ {
					if err := w.Send([]int32{int32(i)}, 0, 1, INT, 0, tag); err != nil {
						errs[g] = err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		return errors.Join(errs...)
	}
	for _, d := range replayDevices {
		t.Run(d.name, func(t *testing.T) {
			replayRoundTrip(t, 4, d.opts, body)
		})
	}
}

// TestReplayHybridClaims pins the hybriddev dual-post arbitration:
// with placement 0,0,1,1 rank 0's ANY_SOURCE receives are dual-posted
// on both the shared-memory and wire cores, and which core claims each
// request is a recorded decision the replay must reproduce (by
// single-posting into the recorded winner).
func TestReplayHybridClaims(t *testing.T) {
	const msgs = 6
	body := func(p *Process) error {
		w := p.World()
		if w.Rank() == 0 {
			buf := make([]int32, 1)
			for i := 0; i < (w.Size()-1)*msgs; i++ {
				if _, err := w.Recv(buf, 0, 1, INT, AnySource, 3); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			if err := w.Send([]int32{int32(i)}, 0, 1, INT, 0, 3); err != nil {
				return err
			}
		}
		return nil
	}
	replayRoundTrip(t, 4, Options{Device: "hybrid", NodeMap: "0,0,1,1"}, body)

	// The recording must actually contain claim decisions — rank 0 has
	// both a node-local peer (1) and wire peers (2, 3).
	dir := t.TempDir()
	if err := RunLocalOpts(4, &Options{Device: "hybrid", NodeMap: "0,0,1,1", RecordDir: dir}, body); err != nil {
		t.Fatal(err)
	}
	recs, err := replay.ReadLog(filepath.Join(dir, replay.LogName(0)))
	if err != nil {
		t.Fatal(err)
	}
	claims := 0
	for _, r := range recs {
		if r.Kind == "claim" && r.Dev != "" {
			claims++
		}
	}
	if claims == 0 {
		t.Fatal("hybrid ANY_SOURCE run recorded no resolved claim decisions")
	}
}

// TestReplayWaitany exercises the completion-pop decision stream:
// WaitAny's pop order over racing requests is recorded and enforced.
// Each round also holds a request that has already completed when
// WaitAny is entered; under a session it is popped like the rest, so
// it appears in the recorded stream and replays in place.
func TestReplayWaitany(t *testing.T) {
	const rounds = 5
	const earlyTag, syncTag = 100, 200
	body := func(p *Process) error {
		w := p.World()
		if w.Rank() == 0 {
			for r := 0; r < rounds; r++ {
				reqs := make([]*Request, w.Size())
				bufs := make([][]int32, w.Size())
				for i := range reqs {
					bufs[i] = make([]int32, 1)
					src, tag := i, r
					if i == 0 {
						src, tag = 1, earlyTag+r
					}
					var err error
					reqs[i], err = w.Irecv(bufs[i], 0, 1, INT, src, tag)
					if err != nil {
						return err
					}
				}
				// Rank 1 sends the early message before this one, so
				// reqs[0] has completed once it returns.
				if _, err := w.Recv(make([]int32, 1), 0, 1, INT, 1, syncTag+r); err != nil {
					return err
				}
				for done := 0; done < len(reqs); done++ {
					if _, _, err := WaitAny(reqs); err != nil {
						return err
					}
				}
			}
			return nil
		}
		for r := 0; r < rounds; r++ {
			if w.Rank() == 1 {
				for _, tag := range []int{earlyTag + r, syncTag + r} {
					if err := w.Send([]int32{int32(r)}, 0, 1, INT, 0, tag); err != nil {
						return err
					}
				}
			}
			if err := w.Send([]int32{int32(r)}, 0, 1, INT, 0, r); err != nil {
				return err
			}
		}
		return nil
	}
	for _, d := range replayDevices {
		if d.name == "ibisdev" {
			continue // no completion queue: Peek unsupported
		}
		t.Run(d.name, func(t *testing.T) {
			dir := replayRoundTrip(t, 4, d.opts, body)
			recs, err := replay.ReadLog(filepath.Join(dir, replay.LogName(0)))
			if err != nil {
				t.Fatal(err)
			}
			early := 0
			for _, rec := range recs {
				if rec.Kind == "pop" && rec.Tag >= earlyTag && rec.Tag < earlyTag+rounds {
					early++
				}
			}
			if early != rounds {
				t.Errorf("recorded %d pops of an already-complete request, want %d", early, rounds)
			}
		})
	}
}

// TestReplayAgree records and replays fault-tolerant agreement
// outcomes alongside point-to-point traffic.
func TestReplayAgree(t *testing.T) {
	body := func(p *Process) error {
		w := p.World()
		for round := 0; round < 3; round++ {
			v, err := w.Agree(int64(0b111000 | round))
			if err != nil {
				return err
			}
			if v != int64(0b111000|round) {
				return fmt.Errorf("agree round %d: got %#x", round, v)
			}
		}
		return nil
	}
	replayRoundTrip(t, 3, Options{Device: "niodev"}, body)

	dir := t.TempDir()
	if err := RunLocalOpts(3, &Options{Device: "niodev", RecordDir: dir}, body); err != nil {
		t.Fatal(err)
	}
	recs, err := replay.ReadLog(filepath.Join(dir, replay.LogName(1)))
	if err != nil {
		t.Fatal(err)
	}
	agrees := 0
	for _, r := range recs {
		if r.Kind == "agree" {
			agrees++
		}
	}
	if agrees != 3 {
		t.Fatalf("recorded %d agree decisions, want 3", agrees)
	}
}

// TestReplayDivergenceTyped tampers with a recorded wildcard decision
// and requires the replay to fail with the typed divergence error
// naming the mismatch.
func TestReplayDivergenceTyped(t *testing.T) {
	dir := t.TempDir()
	body := func(p *Process) error {
		w := p.World()
		if w.Rank() == 0 {
			buf := make([]int32, 1)
			for i := 0; i < w.Size()-1; i++ {
				if _, err := w.Recv(buf, 0, 1, INT, AnySource, 9); err != nil {
					return err
				}
			}
			return nil
		}
		return w.Send([]int32{1}, 0, 1, INT, 0, 9)
	}
	if err := RunLocalOpts(3, &Options{Device: "smpdev", RecordDir: dir}, body); err != nil {
		t.Fatal(err)
	}

	// Corrupt the expected seq of rank 0's first wildcard match: the
	// recorded source still sends, but the stamp check must trip.
	path := filepath.Join(dir, replay.LogName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	tampered := false
	for i, ln := range lines {
		if strings.Contains(ln, `"k":"wildcard"`) && strings.Contains(ln, `"seq":`) {
			at := strings.Index(ln, `"seq":`)
			end := at + len(`"seq":`)
			rest := ln[end:]
			stop := strings.IndexAny(rest, ",}")
			lines[i] = ln[:end] + "1" + rest[stop:]
			tampered = true
			break
		}
	}
	if !tampered {
		t.Fatalf("no wildcard record to tamper in:\n%s", data)
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	err = RunLocalOpts(3, &Options{Device: "smpdev", ReplayDir: dir}, body)
	if err == nil {
		t.Fatal("tampered replay ran divergence-free")
	}
	if !errors.Is(err, replay.ErrReplayDiverged) {
		t.Fatalf("tampered replay error = %v, want ErrReplayDiverged", err)
	}
	var div *replay.DivergenceError
	if !errors.As(err, &div) {
		t.Fatalf("error %v carries no *DivergenceError", err)
	}
	if div.Op != "wildcard" {
		t.Fatalf("divergence op = %q, want wildcard", div.Op)
	}
}

// TestReplayTwiceByteIdentical replays the same recording twice and
// requires the two observed logs to agree byte for byte on every rank
// — the CI replay job's determinism assertion.
func TestReplayTwiceByteIdentical(t *testing.T) {
	const msgs = 4
	body := func(p *Process) error {
		w := p.World()
		if w.Rank() == 0 {
			buf := make([]int32, 1)
			for i := 0; i < (w.Size()-1)*msgs; i++ {
				if _, err := w.Recv(buf, 0, 1, INT, AnySource, AnyTag); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			if err := w.Send([]int32{int32(i)}, 0, 1, INT, 0, w.Rank()); err != nil {
				return err
			}
		}
		return nil
	}
	recDir := t.TempDir()
	if err := RunLocalOpts(4, &Options{Device: "niodev", RecordDir: recDir}, body); err != nil {
		t.Fatal(err)
	}
	obs := [2]string{t.TempDir(), t.TempDir()}
	for i, dir := range obs {
		if err := RunLocalOpts(4, &Options{Device: "niodev", ReplayDir: recDir, RecordDir: dir}, body); err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
	}
	for r := 0; r < 4; r++ {
		a, err := os.ReadFile(filepath.Join(obs[0], replay.LogName(r)))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(obs[1], replay.LogName(r)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("rank %d: two replays of one recording disagree", r)
		}
	}
}

// TestReplayCIScenario is the CI replay job's driver (satellite 5,
// ISSUE 10): a chaos-seeded hybrid fan-in whose record and replay
// stages run as separate processes so the byte-compare happens on real
// on-disk artifacts. Gated on MPJ_CI_REPLAY_DIR / MPJ_CI_REPLAY_STAGE
// so the ordinary test run skips it; the workflow runs stage "record"
// once and stage "replay" twice (MPJ_CI_REPLAY_OUT=observed-1,
// observed-2), then asserts all three decision-log sets byte-identical
// and uploads them on divergence.
func TestReplayCIScenario(t *testing.T) {
	base := os.Getenv("MPJ_CI_REPLAY_DIR")
	stage := os.Getenv("MPJ_CI_REPLAY_STAGE")
	if base == "" || stage == "" {
		t.Skip("CI driver: set MPJ_CI_REPLAY_DIR and MPJ_CI_REPLAY_STAGE")
	}
	const msgs = 6
	body := func(p *Process) error {
		w := p.World()
		if w.Rank() == 0 {
			buf := make([]int32, 2)
			for i := 0; i < (w.Size()-1)*msgs; i++ {
				if _, err := w.Recv(buf, 0, 2, INT, AnySource, AnyTag); err != nil {
					return err
				}
			}
		} else {
			for i := 0; i < msgs; i++ {
				msg := []int32{int32(w.Rank()), int32(i)}
				if err := w.Send(msg, 0, 2, INT, 0, w.Rank()); err != nil {
					return err
				}
			}
		}
		// An agreement round so the CI scenario also exercises the
		// agree decision stream.
		if _, err := w.Agree(int64(1 << w.Rank())); err != nil {
			return err
		}
		return nil
	}
	opts := Options{Device: "hybrid", NodeMap: "0,0,1,1"}
	switch stage {
	case "record":
		opts.RecordDir = filepath.Join(base, "recorded")
	case "replay":
		out := os.Getenv("MPJ_CI_REPLAY_OUT")
		if out == "" {
			t.Fatal("stage replay needs MPJ_CI_REPLAY_OUT")
		}
		opts.ReplayDir = filepath.Join(base, "recorded")
		opts.RecordDir = filepath.Join(base, out)
	default:
		t.Fatalf("unknown MPJ_CI_REPLAY_STAGE %q", stage)
	}
	if err := os.MkdirAll(opts.RecordDir, 0o777); err != nil {
		t.Fatal(err)
	}
	if err := RunLocalOpts(4, &opts, body); err != nil {
		t.Fatalf("stage %s: %v", stage, err)
	}
}
