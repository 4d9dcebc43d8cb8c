package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mpj/bench/rank"
)

// The test binary stands in for the mpjbench binary in its two child
// roles, so the smoke tests launch real OS processes through mpjrt
// without building anything first.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 {
		switch os.Args[1] {
		case "rank":
			os.Exit(rank.Main(os.Args[2]))
		case "local":
			os.Exit(localMain(os.Args[2]))
		}
	}
	os.Exit(m.Run())
}

// inTempDir runs the benchmark's outputs into a scratch directory.
func inTempDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
	return dir
}

// TestSmokeEveryWorkload runs all five workloads for 200 ms, one
// repeat each, through the same code path as a full run.
func TestSmokeEveryWorkload(t *testing.T) {
	dir := inTempDir(t)
	var stdout, stderr bytes.Buffer
	out := filepath.Join(dir, "smoke.json")
	if code := benchMain([]string{"-seconds", "0.2", "-repeats", "1", "-seed", "5", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	res, err := readResult(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != len(rank.Workloads) {
		t.Fatalf("%d workloads in the result, want %d", len(res.Workloads), len(rank.Workloads))
	}
	fp := res.Fingerprint
	if fp.Seed != 5 || fp.Repeats != 1 || fp.Seconds != 0.2 || fp.GoVersion == "" || fp.GOMAXPROCS < 1 || !strings.Contains(fp.Link, "loopback") {
		t.Errorf("fingerprint incomplete: %+v", fp)
	}
	for i, w := range res.Workloads {
		wl := rank.Workloads[i]
		if w.Name != wl.Name {
			t.Errorf("workload %d is %s, want %s", i, w.Name, wl.Name)
		}
		if w.Failed != 0 || w.Attempted < 1 || len(w.Misses) != 0 {
			t.Errorf("%s: attempted %d, failed %d, misses %v", w.Name, w.Attempted, w.Failed, w.Misses)
		}
		for _, d := range endToEnd {
			m := w.Metrics[d.Name]
			if m == nil || m.Value <= 0 || m.Samples < 1 || m.Unit != d.Unit || m.Bound != d.Bound {
				t.Errorf("%s: metric %s = %+v", w.Name, d.Name, m)
			}
			if !strings.Contains(stdout.String(), d.Name) {
				t.Errorf("%s not printed by name", d.Name)
			}
		}
		pids := w.RankPIDs[0]
		if len(pids) != wl.NP {
			t.Fatalf("%s: rank PIDs %v, want %d ranks", w.Name, pids, wl.NP)
		}
		distinct := pids[0] != pids[1] && pids[0] != w.DriverPID && pids[1] != w.DriverPID
		if wl.Process && !distinct {
			t.Errorf("%s: ranks %v and driver %d are not separate OS processes", w.Name, pids, w.DriverPID)
		}
		if !wl.Process && (pids[0] != pids[1] || pids[0] == w.DriverPID) {
			t.Errorf("%s: goroutine ranks %v should share one child process (driver %d)", w.Name, pids, w.DriverPID)
		}
	}
}

// TestSmokeSingleWorkloadLine checks the one-line JSON result a
// single-workload run ends with, untraced and traced.
func TestSmokeSingleWorkloadLine(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced run's layer probes take several seconds")
	}
	inTempDir(t)
	for _, c := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "fanin_anysource_smp_np4", "--seed", "2", "--seconds", "1", "--repeats", "2", "--trace", c.trace}
		if code := benchMain(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit code %d\nstdout:\n%s\nstderr:\n%s", c.trace, code, &stdout, &stderr)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line struct {
			Correct   bool  `json:"correct"`
			Attempted int64 `json:"attempted"`
			Failed    int64 `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("trace %s: last line is not the result object: %v\n%s", c.trace, err, lines[len(lines)-1])
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != len(c.defs) {
			t.Errorf("trace %s: result %+v, want correct with %d metrics", c.trace, line, len(c.defs))
		}
		for _, d := range c.defs {
			if m, ok := line.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
				t.Errorf("trace %s: metric %s missing or mislabelled: %+v", c.trace, d.Name, m)
			}
		}
		if c.trace == "1" {
			for _, name := range []string{"layers.reconcile_ratio_8B", "mpjdev.waitany_p50_us", "mpj.trace_overhead_ratio"} {
				if v := line.Metrics[name].Value; v == nil || *v <= 0 {
					t.Errorf("traced fan-in: %s = %v, want > 0", name, v)
				}
			}
			matches, _ := filepath.Glob(filepath.Join("results", "TRACE_*.json"))
			if len(matches) != 1 {
				t.Fatalf("trace files written: %v", matches)
			}
			var tf TraceFile
			b, err := os.ReadFile(matches[0])
			if err == nil {
				err = json.Unmarshal(b, &tf)
			}
			if err != nil || len(tf.Workloads) != 1 || len(tf.Workloads[0].Spans) == 0 {
				t.Errorf("trace file unreadable or empty: %v", err)
			}
		}
	}
}

func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"}, {"-seconds", "0"}, {"-repeats", "0"}, {"-trace", "2"}, {"stray"},
	} {
		var stdout, stderr bytes.Buffer
		if code := benchMain(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit code %d, stdout %q; want 2 and nothing printed", args, code, &stdout)
		}
	}
}

func sampleResult() *Result {
	d := endToEnd[0]
	m := newMetric(d, []float64{30, 31, 32, 33, 34}, 500, "")
	m.AASpread = 0.03
	return &Result{
		Fingerprint: fingerprint(9, Settings{Seconds: 15, Repeats: 20, WarmupMs: 125, TimedMs: 750}),
		Workloads: []WorkloadResult{{
			Name: "pingpong_eager_8B", Why: "why", Attempted: 10, MBPerS: 1.5, ByteBase: "8 payload bytes per op",
			RankPIDs: [][]int{{11, 12}}, DriverPID: 10,
			Metrics: map[string]*Metric{d.Name: m},
		}},
	}
}

func TestResultRoundTrip(t *testing.T) {
	want := sampleResult()
	path := filepath.Join(t.TempDir(), "sub", "r.json")
	if err := writeJSON(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := readResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the result:\n got %+v\nwant %+v", got, want)
	}
	m := got.Workloads[0].Metrics[endToEnd[0].Name]
	if m.Value != 32 || m.Q1 != 30.5 || m.Q3 != 33.5 || m.Samples != 500 {
		t.Errorf("metric = %+v, want median 32, quartiles 30.5 and 33.5 over 500 samples", m)
	}
	if _, err := readResult(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("reading a missing file succeeded")
	}
}

// TestBenchmarkJSONAgrees holds BENCHMARK.json and the code together:
// the file must name exactly the workloads and metrics the benchmark
// measures, with the same units, directions and bounds.
func TestBenchmarkJSONAgrees(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" || bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", bj.Paths, bj.RunSeconds)
	}
	if len(bj.Workloads) != len(rank.Workloads) {
		t.Fatalf("%d workloads listed, the benchmark has %d", len(bj.Workloads), len(rank.Workloads))
	}
	for i, w := range bj.Workloads {
		if wl := rank.Workloads[i]; w.Name != wl.Name || w.Why != wl.Why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (%d chars of why) does not match %q", i, w.Name, len(w.Why), wl.Name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics listed, the benchmark has %d", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s metric %d: %+v does not match %+v", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != d.Bound) {
				t.Errorf("%s metric %s: bound %v, want bounded=%v %v", kind, m.Name, m.Bound, bounded, d.Bound)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
}
