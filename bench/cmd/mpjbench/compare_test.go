package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"mpj/bench/rank"
	"mpj/bench/stats"
)

// around returns five repeats centred on mid with the given quartile
// spread as a share of mid.
func around(mid, spread float64) []float64 {
	h := mid * spread / 2 // q1 and q3 of five values are the means of the outer pairs: mid ∓ h
	return []float64{mid - 1.5*h, mid - 0.5*h, mid, mid + 0.5*h, mid + 1.5*h}
}

// measured returns a metric over the repeats with the given measured
// A/A spread stored, as a run at the standard settings would.
func measured(def metricDef, repeats []float64, aa float64) *Metric {
	m := newMetric(def, repeats, 1, "")
	m.AASpread = aa
	return m
}

func TestJudgeVerdicts(t *testing.T) {
	lower := metricDef{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	layer := metricDef{Name: "match.specific_add_match_ns", Unit: "ns", Better: "lower"}
	for _, c := range []struct {
		name     string
		def      metricDef
		a, b     float64 // medians
		aaA, aaB float64 // measured A/A spread stored in each file
		want     string
		wantUp   bool // B worse than A
	}{
		{"within bound", lower, 100, 105, 0.03, 0.03, same, true},
		{"slower by more than the bound", lower, 100, 112, 0.03, 0.03, worse, true},
		{"exactly at the bound is not worse", lower, 100, 110, 0.03, 0.03, same, true},
		{"faster by more than the bound", lower, 100, 88, 0.03, 0.03, better, false},
		{"faster but within the bound", lower, 100, 93, 0.03, 0.03, same, false},
		{"throughput down is worse", higher, 1000, 850, 0.03, 0.03, worse, true},
		{"throughput up is better", higher, 1000, 1150, 0.03, 0.03, better, false},
		{"A/A spread beyond the bound in A", lower, 100, 150, 0.12, 0.03, unresolved, true},
		{"A/A spread beyond the bound in B", lower, 100, 150, 0.03, 0.12, unresolved, true},
		{"no A/A spread measured at these settings", lower, 100, 150, 0, 0, unresolved, true},
		{"per-layer metrics are never judged", layer, 100, 300, 0, 0, ungated, true},
	} {
		a, b := measured(c.def, around(c.a, 0.02), c.aaA), measured(c.def, around(c.b, 0.02), c.aaB)
		worsening, got := judge(a, b)
		if got != c.want || (worsening > 0) != c.wantUp {
			t.Errorf("%s: verdict %s, worsening %+.3f; want %s, worse=%v", c.name, got, worsening, c.want, c.wantUp)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r *Result) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	d := endToEnd[0]
	a := sampleResult()
	slow := sampleResult()
	slow.Workloads[0].Metrics[d.Name] = measured(d, []float64{40, 41, 42, 43, 44}, 0.03)
	// A workload whose every repeat failed has no metrics at all.
	broken := sampleResult()
	broken.Workloads[0].Metrics = map[string]*Metric{}
	broken.Workloads[0].Failed, broken.Workloads[0].Misses = 10, []string{"rank exit codes [1 0]"}
	gone := sampleResult()
	gone.Workloads[0].Name = "renamed"
	failing := sampleResult()
	failing.Workloads[0].Failed = 1
	other := sampleResult()
	other.Fingerprint.Repeats = 5

	run := func(x, y string) (int, string, string) {
		var stdout, stderr bytes.Buffer
		code := compareMain([]string{x, y}, &stdout, &stderr)
		return code, stdout.String(), stderr.String()
	}
	pa := write("a.json", a)

	code, out, _ := run(pa, pa)
	if code != 0 || !strings.Contains(out, same) || !strings.Contains(out, "0 worse") {
		t.Errorf("A against itself: exit %d\n%s", code, out)
	}
	code, out, _ = run(pa, write("slow.json", slow))
	if code != 1 || !strings.Contains(out, worse) || !strings.Contains(out, "of 32") {
		t.Errorf("a 31%% slowdown: exit %d, want 1 with the ratio's base printed\n%s", code, out)
	}
	for name, r := range map[string]*Result{"broken": broken, "gone": gone} {
		code, out, _ = run(pa, write(name+".json", r))
		if code != 1 || !strings.Contains(out, "missing") || !strings.Contains(out, "1 worse") {
			t.Errorf("%s workload in B: exit %d, want 1 with the pair shown as missing and worse\n%s", name, code, out)
		}
	}
	code, out, _ = run(pa, write("failing.json", failing))
	if code != 1 || !strings.Contains(out, "0 worse") || !strings.Contains(out, "1 of 10 ops failed") {
		t.Errorf("failed ops in B: exit %d, want 1 with the failures listed\n%s", code, out)
	}
	// Different settings are refused with a message, not compared and
	// not a panic.
	code, out, errOut := run(pa, write("other.json", other))
	if code != 2 || out != "" || !strings.Contains(errOut, "settings differ") {
		t.Errorf("different settings: exit %d, stdout %q, stderr %q", code, out, errOut)
	}
	code, _, errOut = run(pa, filepath.Join(dir, "missing.json"))
	if code != 2 || errOut == "" {
		t.Errorf("missing file: exit %d, stderr %q", code, errOut)
	}
	if code, _, _ := run(pa, ""); code != 2 {
		t.Errorf("empty path: exit %d", code)
	}
}

// TestAASpreadTable holds aa_spread.json and the gate together: every
// gated (workload, metric) pair has a measured A/A spread, and it lies
// within the bound — otherwise compare could never call the pair.
func TestAASpreadTable(t *testing.T) {
	std := Settings{Seconds: aaMeasured.Seconds, Repeats: aaMeasured.Repeats}
	for _, wl := range rank.Workloads {
		for _, d := range endToEnd {
			if s := aaSpread(std, wl.Name, d.Name); s <= 0 || s > d.Bound {
				t.Errorf("%s %s: measured A/A spread %v, want within (0, %v]", wl.Name, d.Name, s, d.Bound)
			}
		}
	}
	other := std
	other.Repeats++
	if s := aaSpread(other, rank.Workloads[0].Name, endToEnd[0].Name); s != 0 {
		t.Errorf("A/A spread %v claimed for settings it was not measured at", s)
	}
}

func TestSpreadOverRuns(t *testing.T) {
	dir := t.TempDir()
	d := endToEnd[0]
	var paths []string
	var medians []float64
	for i, v := range []float64{30, 31, 33, 36, 32} {
		r := sampleResult()
		r.Workloads[0].Metrics[d.Name] = newMetric(d, around(v, 0.02), 500, "")
		path := filepath.Join(dir, string(rune('a'+i))+".json")
		if err := writeJSON(path, r); err != nil {
			t.Fatal(err)
		}
		paths, medians = append(paths, path), append(medians, v)
	}
	var stdout, stderr bytes.Buffer
	if code := spreadMain(paths, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, &stderr)
	}
	var got aaTable
	if err := json.Unmarshal(stdout.Bytes(), &got); err != nil {
		t.Fatalf("output is not a table: %v\n%s", err, &stdout)
	}
	want := stats.Spread(medians) // (34.5 - 30.5) / 32
	if s := got.Spread["pingpong_eager_8B"][d.Name]; math.Abs(s-want) > 1e-4 || got.Runs != 5 || got.Seconds != 15 || got.Repeats != 20 {
		t.Errorf("spread %v over %d runs at %v s x %d, want %v over 5 at 15 x 20", s, got.Runs, got.Seconds, got.Repeats, want)
	}
	if code := spreadMain(paths[:3], &stdout, &stderr); code != 2 {
		t.Errorf("three runs: exit %d, want 2", code)
	}
}
