package stats

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := Median(c.in); !near(got, c.want) {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 {
		t.Error("Median sorted its argument in place")
	}
}

// The quartiles must be the ones Python's statistics.quantiles(v, n=4)
// returns (default exclusive method): the expected values below were
// computed with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 82.5},
		{[]float64{2.5, 3.1, 2.9, 3.3, 2.7, 3.0, 2.8}, 2.7, 3.1},
		{[]float64{5}, 5, 5},
	} {
		q1, q3 := Quartiles(c.in)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("Quartiles(%v) = %v, %v, want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
	if got := Spread([]float64{1, 2, 3, 4, 5}); !near(got, 1) {
		t.Errorf("Spread = %v, want (4.5-1.5)/3 = 1", got)
	}
	if Spread(nil) != 0 {
		t.Error("Spread(nil) != 0")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {90, 90}, {1, 1}, {99.9, 100}} {
		if got := Percentile(v, c.p); got != c.want {
			t.Errorf("Percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// A tail percentile may be printed only when at least ten samples lie
// beyond it.
func TestTailPercentNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 0},     // not even the median qualifies
		{20, 50},    // ten beyond the median
		{100, 90},   // ten beyond p90
		{600, 98},   // p99 would rest on 6 samples
		{999, 98},   // 9.99 beyond p99: not enough
		{1000, 99},  // exactly ten beyond p99
		{50000, 99}, // capped at the limit
	} {
		got := TailPercent(c.n, 99)
		if got != c.want {
			t.Errorf("TailPercent(%d) = %v, want %v", c.n, got, c.want)
		}
		if got > 0 {
			if beyond := float64(c.n) * (100 - got) / 100; beyond < 10-1e-9 {
				t.Errorf("TailPercent(%d) = p%v leaves only %.2f samples beyond", c.n, got, beyond)
			}
		}
	}
	s := Summarize([]float64{1, 2, 3}, 3)
	if s.TailPct != 0 || s.Tail != 0 || s.P50 != 2 || s.N != 3 {
		t.Errorf("Summarize of 3 samples = %+v, want a median and no tail", s)
	}
}

func TestSamplerThinsEvenly(t *testing.T) {
	s := NewSampler(64)
	const n = 10000
	for i := 0; i < n; i++ {
		s.Add(float64(i))
	}
	v := s.Values()
	if s.N() != n || len(v) > 64 || len(v) < 32 {
		t.Fatalf("kept %d of %d values in a 64-slot sampler", len(v), s.N())
	}
	// Kept values are exact arrivals at a constant stride, so the
	// median of the stream survives thinning.
	stride := v[1] - v[0]
	for i := 1; i < len(v); i++ {
		if v[i]-v[i-1] != stride {
			t.Fatalf("uneven thinning: %v", v)
		}
	}
	if got := s.Summary(); math.Abs(got.P50-n/2) > stride || got.N != n {
		t.Errorf("Summary = %+v, want median near %d of %d", got, n/2, n)
	}
}
