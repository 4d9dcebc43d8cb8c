package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"mpj/bench/stats"
)

// aaTable is the measured A/A spread: how far each gated metric's value
// moved between runs of unchanged code, as the distance between the
// quartiles of the runs' values over their median. BENCHMARK.json has
// no field for it, so it lives in aa_spread.json beside this file;
// bench/aa_spread.sh measures it afresh. It holds for the settings it
// was measured at and for no others.
type aaTable struct {
	Note    string                        `json:"note"`
	Seconds float64                       `json:"seconds"`
	Repeats int                           `json:"repeats"`
	Runs    int                           `json:"runs"`
	Spread  map[string]map[string]float64 `json:"spread"` // workload → metric → spread
}

//go:embed aa_spread.json
var aaSpreadJSON []byte

var aaMeasured = func() aaTable {
	var t aaTable
	if err := json.Unmarshal(aaSpreadJSON, &t); err != nil {
		panic("aa_spread.json: " + err.Error()) // a broken build, not an input
	}
	return t
}()

// aaSpread returns the measured A/A spread of the metric on the
// workload for a run at settings s, 0 when none was measured there.
func aaSpread(s Settings, workload, metric string) float64 {
	if s.Trace || s.Seconds != aaMeasured.Seconds || s.Repeats != aaMeasured.Repeats {
		return 0
	}
	return aaMeasured.Spread[workload][metric]
}

// spreadMain is "mpjbench spread RUN.json...": the A/A spread of every
// gated metric over result files of unchanged code, one file per run,
// printed in the form of aa_spread.json.
func spreadMain(args []string, stdout, stderr io.Writer) int {
	if len(args) < 4 {
		fmt.Fprintln(stderr, "usage: mpjbench spread RUN.json... (quartiles need at least four runs per workload)")
		return 2
	}
	values := make(map[string]map[string][]float64)
	var first Fingerprint
	for i, path := range args {
		r, err := readResult(path)
		if err != nil {
			fmt.Fprintln(stderr, "mpjbench spread:", err)
			return 2
		}
		if i == 0 {
			first = r.Fingerprint
		} else if r.Fingerprint.Settings != first.Settings {
			fmt.Fprintf(stderr, "mpjbench spread: %s was measured at other settings than %s\n", path, args[0])
			return 2
		}
		for _, w := range r.Workloads {
			if values[w.Name] == nil {
				values[w.Name] = make(map[string][]float64)
			}
			for _, d := range endToEnd {
				if m := w.Metrics[d.Name]; m != nil {
					values[w.Name][d.Name] = append(values[w.Name][d.Name], m.Value)
				}
			}
		}
	}
	t := aaTable{Seconds: first.Seconds, Repeats: first.Repeats, Spread: make(map[string]map[string]float64)}
	for name, metrics := range values {
		t.Spread[name] = make(map[string]float64)
		for metric, v := range metrics {
			if len(v) < 4 {
				fmt.Fprintf(stderr, "mpjbench spread: %s has %d runs, need at least four\n", name, len(v))
				return 2
			}
			t.Runs = len(v)
			t.Spread[name][metric] = math.Round(1e4*stats.Spread(v)) / 1e4
		}
	}
	t.Note = fmt.Sprintf("distance between the quartiles of %d runs' values, each run with another seed, as a share of their median; commit %s, %s, nproc %d, kernel %s, %s",
		t.Runs, first.Commit, first.CPU, first.NumCPU, first.Kernel, first.GoVersion)
	b, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		fmt.Fprintln(stderr, "mpjbench spread:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}
