// Decision-log inspection and replay driving: the record/replay side
// of mpjtrace (see internal/replay). Decision logs are the per-rank
// rank-N.decisions files a recorded run (MPJ_RECORD / -record) writes.
package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"mpj/internal/mpe"
	"mpj/internal/replay"
)

// rankLog is one rank's parsed decision log.
type rankLog struct {
	rank int
	recs []*replay.Record
}

// readDecisionLogs loads every rank-*.decisions file in dir, rank
// ordered.
func readDecisionLogs(dir string) ([]rankLog, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "rank-*.decisions"))
	if err != nil {
		return nil, err
	}
	var logs []rankLog
	for _, p := range paths {
		base := strings.TrimSuffix(filepath.Base(p), ".decisions")
		rank, err := strconv.Atoi(strings.TrimPrefix(base, "rank-"))
		if err != nil {
			continue
		}
		recs, err := replay.ReadLog(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		logs = append(logs, rankLog{rank: rank, recs: recs})
	}
	if len(logs) == 0 {
		return nil, fmt.Errorf("no rank-*.decisions files in %s", dir)
	}
	sort.Slice(logs, func(i, j int) bool { return logs[i].rank < logs[j].rank })
	return logs, nil
}

// formatDecision renders one record for the -decisions timeline.
func formatDecision(r *replay.Record) string {
	switch r.Kind {
	case "meta":
		s := fmt.Sprintf("meta     device=%s size=%d", r.Dev, r.Tag)
		if r.Note != "" {
			s += " chaos-seed=" + r.Note
		}
		return s
	case "wildcard":
		if r.Op == "open" {
			return fmt.Sprintf("wildcard %s #%d: posted, never matched", r.Key, r.Idx)
		}
		return fmt.Sprintf("wildcard %s #%d: matched src=%d tag=%d seq=%#x", r.Key, r.Idx, r.Src, r.Tag, r.Seq)
	case "agree":
		return fmt.Sprintf("agree    %s #%d: val=%#x", r.Key, r.Idx, r.Val)
	case "pop":
		return fmt.Sprintf("pop      #%d: %s %s src=%d tag=%d ctx=%d seq=%#x", r.Idx, r.Dev, r.Op, r.Src, r.Tag, r.Ctx, r.Seq)
	case "diverge":
		return "DIVERGED " + r.Note
	}
	return fmt.Sprintf("%s %+v", r.Kind, *r)
}

// printDecisions writes the human-readable decision timeline.
func printDecisions(w io.Writer, dir string, onlyRank int) error {
	logs, err := readDecisionLogs(dir)
	if err != nil {
		return err
	}
	for _, l := range logs {
		if onlyRank >= 0 && l.rank != onlyRank {
			continue
		}
		fmt.Fprintf(w, "rank %d: %d decisions\n", l.rank, len(l.recs))
		for _, r := range l.recs {
			fmt.Fprintf(w, "  %s\n", formatDecision(r))
		}
	}
	return nil
}

// decisionExtras converts the decision logs in dir (if any) into
// Chrome trace events. Decision records carry no wall clock, so every
// event lands at t=0 and the (rank, index) tie-break fixes the order —
// stable across exports even though racing writer threads appended the
// in-memory records in nondeterministic order (the log itself is
// sorted at close; see internal/replay).
func decisionExtras(dir string, onlyRank int) []mpe.ChromeExtra {
	logs, err := readDecisionLogs(dir)
	if err != nil {
		return nil
	}
	var extras []mpe.ChromeExtra
	for _, l := range logs {
		if onlyRank >= 0 && l.rank != onlyRank {
			continue
		}
		for i, r := range l.recs {
			if r.Kind == "meta" {
				continue
			}
			extras = append(extras, mpe.ChromeExtra{
				Rank: l.rank, Seq: r.Seq, Pos: i,
				Name: "Decision:" + r.Kind,
				Cat:  "replay",
				Args: map[string]any{
					"detail": formatDecision(r),
					"index":  i,
				},
			})
		}
	}
	return extras
}

// runReplay re-executes the command after "--" with MPJ_REPLAY
// pointing at recDir and MPJ_RECORD at a scratch directory, then
// byte-compares each rank's observed decision log against the
// recording. Returns an error when the command fails, a rank
// diverges, or any log differs.
func runReplay(recDir string, argv []string) error {
	if len(argv) == 0 {
		return fmt.Errorf("-replay needs a command after --, e.g. mpjtrace -replay DIR -- ./app")
	}
	logs, err := readDecisionLogs(recDir)
	if err != nil {
		return fmt.Errorf("recording: %w", err)
	}
	obsDir, err := os.MkdirTemp("", "mpjtrace-replay-")
	if err != nil {
		return err
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	cmd.Env = append(os.Environ(), "MPJ_REPLAY="+recDir, "MPJ_RECORD="+obsDir)
	runErr := cmd.Run()
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "mpjtrace: replayed command failed: %v\n", runErr)
	}

	differ := 0
	for _, l := range logs {
		name := replay.LogName(l.rank)
		rec, err := os.ReadFile(filepath.Join(recDir, name))
		if err != nil {
			return err
		}
		obs, err := os.ReadFile(filepath.Join(obsDir, name))
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpjtrace: rank %d: no observed log (%v)\n", l.rank, err)
			differ++
			continue
		}
		if bytes.Equal(rec, obs) {
			fmt.Fprintf(os.Stderr, "mpjtrace: rank %d: replay identical (%d decisions)\n", l.rank, len(l.recs))
			continue
		}
		differ++
		recLines := strings.Split(string(rec), "\n")
		obsLines := strings.Split(string(obs), "\n")
		for i := 0; i < len(recLines) || i < len(obsLines); i++ {
			var a, b string
			if i < len(recLines) {
				a = recLines[i]
			}
			if i < len(obsLines) {
				b = obsLines[i]
			}
			if a != b {
				fmt.Fprintf(os.Stderr, "mpjtrace: rank %d: first difference at line %d:\n  recorded: %s\n  observed: %s\n",
					l.rank, i+1, a, b)
				break
			}
		}
	}
	if runErr != nil {
		return fmt.Errorf("replayed command: %w (observed logs kept in %s)", runErr, obsDir)
	}
	if differ > 0 {
		return fmt.Errorf("%d rank(s) diverged from the recording (observed logs kept in %s)", differ, obsDir)
	}
	os.RemoveAll(obsDir)
	return nil
}
