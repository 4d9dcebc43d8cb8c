// Package stats holds the few order statistics the benchmark reports:
// medians, quartiles as Python's statistics.quantiles(n=4) gives them
// (so the numbers agree with whoever re-derives the spread from the
// result files), the "highest percentile with at least ten samples
// beyond it" rule, and a bounded sampler for per-op timings.
package stats

import (
	"math"
	"sort"
)

// Median returns the median of v (0 for an empty slice). v is not
// modified.
func Median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartile of v by the exclusive
// method (position i·(n+1)/4, linear interpolation), which is what
// Python's statistics.quantiles(v, n=4) computes. With fewer than two
// values both quartiles are the single value (or 0).
func Quartiles(v []float64) (q1, q3 float64) {
	if len(v) == 0 {
		return 0, 0
	}
	s := sorted(v)
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// Spread is the distance between the quartiles as a share of the
// median — the run-to-run spread the bounds are judged against.
func Spread(v []float64) float64 {
	m := Median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := Quartiles(v)
	return math.Abs((q3 - q1) / m)
}

// Percentile returns the p-th percentile (0 < p < 100) of v by the
// nearest-rank method: the smallest value with at least p% of the
// sample at or below it.
func Percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// TailPercent returns the highest percentile, capped at limit, that
// still has at least ten samples beyond it in a sample of n: a tail
// figure resting on fewer is one outlier's value, not a percentile.
// It returns 0 when even the median cannot meet the rule (n < 20).
func TailPercent(n int, limit float64) float64 {
	if n < 20 {
		return 0
	}
	p := 100 * float64(n-10) / float64(n)
	switch {
	case p >= limit:
		return limit
	case p >= 90:
		return math.Floor(p) // whole percentiles: p98, p97, ...
	default:
		return math.Floor(p/10) * 10 // p80, p70, ... p50
	}
}

// Summary describes one timing sample.
type Summary struct {
	N       int     `json:"n"`        // timings taken (before thinning)
	P50     float64 `json:"p50"`      // median
	Tail    float64 `json:"tail"`     // the TailPct-th percentile
	TailPct float64 `json:"tail_pct"` // which percentile Tail is; 0 = sample too small
}

// Summarize computes the median and the tail percentile the sample
// supports (at most p99). n is the number of timings taken, which may
// exceed len(v) when a Sampler thinned them.
func Summarize(v []float64, n int) Summary {
	s := Summary{N: n, P50: Median(v)}
	if s.TailPct = TailPercent(len(v), 99); s.TailPct > 0 {
		s.Tail = Percentile(v, s.TailPct)
	}
	return s
}

// Sampler keeps a bounded, evenly thinned subset of a stream of
// timings: when its buffer fills it drops every other kept value and
// from then on keeps every 2nd, 4th, ... arrival. The kept values are
// exact measurements, so percentiles come from real timings rather
// than bucket midpoints, at fixed memory and no allocation after New.
type Sampler struct {
	v      []float64
	stride int // keep one arrival in stride
	skip   int // arrivals still to drop before the next kept one
	n      int // arrivals seen
}

// NewSampler returns a sampler holding at most capacity values.
func NewSampler(capacity int) *Sampler {
	return &Sampler{v: make([]float64, 0, max(capacity, 2)), stride: 1}
}

// Add records one timing.
func (s *Sampler) Add(x float64) {
	s.n++
	if s.skip > 0 {
		s.skip--
		return
	}
	if len(s.v) == cap(s.v) {
		j := 0
		for i := 0; i < len(s.v); i += 2 {
			s.v[j] = s.v[i]
			j++
		}
		s.v = s.v[:j]
		s.stride *= 2
	}
	s.v = append(s.v, x)
	s.skip = s.stride - 1
}

// N reports how many timings were added.
func (s *Sampler) N() int { return s.n }

// Values returns the kept timings (owned by the sampler).
func (s *Sampler) Values() []float64 { return s.v }

// Summary summarizes the kept timings.
func (s *Sampler) Summary() Summary { return Summarize(s.v, s.n) }

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}
