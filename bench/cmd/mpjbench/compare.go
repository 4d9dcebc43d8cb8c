package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of one (metric, workload) comparison.
const (
	better     = "better"
	same       = "same"
	worse      = "worse"
	unresolved = "unresolved" // no measured A/A spread within the bound: no call either way
	ungated    = "ungated"    // per-layer metric: shown, never judged
)

// row is one (metric, workload) pair of two result files. B is nil when
// the second file lacks a gated pair the first one has.
type row struct {
	Workload, Metric string
	A, B             *Metric
	// Worsening is how much worse B's median is than A's, as a share of
	// A's (negative: better), with the metric's direction applied.
	Worsening float64
	Verdict   string
}

// judge compares B against A: worse or better when B's median differs
// from A's by more than the bound, the same otherwise. One pair of runs
// says no more than that; a claimed gain needs ten pairs (README). The
// measured A/A spread the files carry (see aa.go) — how far the value
// moves between runs of unchanged code — decides whether even that can
// be said: without one, or with one wider than the bound, a difference
// cannot be told from the host's own and the pair is unresolved.
func judge(a, b *Metric) (worsening float64, verdict string) {
	if a.Value != 0 {
		worsening = (b.Value - a.Value) / math.Abs(a.Value)
		if a.Better == "higher" {
			worsening = -worsening
		}
	}
	switch {
	case a.Bound == 0:
		return worsening, ungated
	case min(a.AASpread, b.AASpread) == 0 || max(a.AASpread, b.AASpread) > a.Bound:
		return worsening, unresolved
	case worsening > a.Bound:
		return worsening, worse
	case -worsening > a.Bound:
		return worsening, better
	}
	return worsening, same
}

// compareResults pairs up the metrics of two files. It refuses files
// measured at different settings: a longer timed phase or more repeats
// changes medians and spreads by itself. A gated pair that A has and B
// lacks — a workload that no longer runs, or whose every repeat failed
// — is a row with the verdict worse; per-layer metrics are paired only
// where both files have them.
func compareResults(a, b *Result) ([]row, error) {
	if sa, sb := a.Fingerprint.Settings, b.Fingerprint.Settings; sa != sb {
		return nil, fmt.Errorf("settings differ (A %+v, B %+v): results compare only at equal settings", sa, sb)
	}
	var rows []row
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wb == nil {
			wb = &WorkloadResult{}
		}
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				ma, mb := wa.Metrics[d.Name], wb.Metrics[d.Name]
				if ma == nil || (mb == nil && d.Bound == 0) {
					continue
				}
				r := row{Workload: wa.Name, Metric: d.Name, A: ma, B: mb, Verdict: worse}
				if mb != nil {
					r.Worsening, r.Verdict = judge(ma, mb)
				}
				rows = append(rows, r)
			}
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("the files share no (metric, workload) pair")
	}
	return rows, nil
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: mpjbench compare A.json B.json")
		return 2
	}
	a, err := readResult(args[0])
	if err == nil {
		var b *Result
		if b, err = readResult(args[1]); err == nil {
			return printComparison(a, b, stdout, stderr)
		}
	}
	fmt.Fprintln(stderr, "mpjbench compare:", err)
	return 2
}

// printFailures lists the workloads of r whose ops or output checks
// failed and reports whether there were any.
func printFailures(out io.Writer, label string, r *Result) (failed bool) {
	for _, w := range r.Workloads {
		if w.Failed > 0 || len(w.Misses) > 0 {
			fmt.Fprintf(out, "%s: %s: %d of %d ops failed %v\n", label, w.Name, w.Failed, w.Attempted, w.Misses)
			failed = true
		}
	}
	return failed
}

func printComparison(a, b *Result, stdout, stderr io.Writer) int {
	rows, err := compareResults(a, b)
	if err != nil {
		fmt.Fprintln(stderr, "mpjbench compare:", err)
		return 2
	}
	fa, fb := a.Fingerprint, b.Fingerprint
	fmt.Fprintf(stdout, "A: commit %s dirty=%v seed %d    B: commit %s dirty=%v seed %d\n",
		fa.Commit, fa.Dirty, fa.Seed, fb.Commit, fb.Dirty, fb.Seed)
	if fa.CPU != fb.CPU || fa.GOMAXPROCS != fb.GOMAXPROCS || fa.GoVersion != fb.GoVersion {
		fmt.Fprintf(stdout, "note: hosts differ (A: %s, GOMAXPROCS %d, %s; B: %s, GOMAXPROCS %d, %s)\n",
			fa.CPU, fa.GOMAXPROCS, fa.GoVersion, fb.CPU, fb.GOMAXPROCS, fb.GoVersion)
	}
	fmt.Fprintf(stdout, "%-26s %-30s %-5s %36s %36s %24s %9s  %s\n",
		"workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "B vs A (base: A median)", "A/A", "verdict")
	counts := make(map[string]int)
	for _, r := range rows {
		cell := func(m *Metric) string { return fmt.Sprintf("%.6g [%.6g, %.6g]", m.Value, m.Q1, m.Q3) }
		cellB, change, aa := "missing", "", "-"
		if r.B != nil {
			dir := "worse"
			if r.Worsening < 0 {
				dir = "better"
			}
			cellB = cell(r.B)
			change = fmt.Sprintf("%.2f%% %s of %.6g", 100*math.Abs(r.Worsening), dir, r.A.Value)
			if s := max(r.A.AASpread, r.B.AASpread); s > 0 {
				aa = fmt.Sprintf("%.1f%%", 100*s)
			}
		}
		fmt.Fprintf(stdout, "%-26s %-30s %-5s %36s %36s %24s %9s  %s\n",
			r.Workload, r.Metric, r.A.Unit, cell(r.A), cellB, change, aa, r.Verdict)
		counts[r.Verdict]++
	}
	fmt.Fprintf(stdout, "%d better, %d same, %d worse, %d unresolved, %d ungated\n",
		counts[better], counts[same], counts[worse], counts[unresolved], counts[ungated])
	printFailures(stdout, "A", a)
	if printFailures(stdout, "B", b) || counts[worse] > 0 {
		return 1
	}
	return 0
}
