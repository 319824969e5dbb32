// Package stats provides the small set of streaming statistics used by the
// experiment harnesses: online mean/variance (Welford), exact quantiles
// over retained samples, fixed-width histograms and throughput meters.
// A retained sample stores runs of repeated values, so its memory follows
// how often the observed value changes, not how many observations it
// holds.
package stats

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Welford accumulates count, mean, variance, min and max online.
type Welford struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add folds x into the accumulator.
func (w *Welford) Add(x float64) {
	if w.n == 0 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of samples.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean, or 0 with no samples.
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance.
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Min returns the smallest sample, or 0 with no samples.
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest sample, or 0 with no samples.
func (w *Welford) Max() float64 { return w.max }

// String summarises the accumulator for reports.
func (w *Welford) String() string {
	return fmt.Sprintf("n=%d mean=%.3f std=%.3f min=%.3f max=%.3f",
		w.n, w.Mean(), w.Std(), w.min, w.max)
}

// Sample retains every observation for exact quantile queries. Its
// memory follows how often the observed value changes, not how many
// observations there are: a constant-rate stream's delay, the same
// value frame after frame, costs one run however long it plays.
//
// Observations are kept in arrival order as runs: a value and how many
// times in a row it was observed. Quantiles sort the runs in place (and
// merge the equal neighbours the sort brings together); every read
// sees exactly the sequence of observations a one-float-per-observation
// store would hold, so Mean sums them in the same order, bit for bit.
type Sample struct {
	runs   []run
	n      int
	sorted bool // runs are in ascending order
}

// run is one value observed n times in a row.
type run struct {
	x float64
	n int
}

// Add records one observation.
func (s *Sample) Add(x float64) { s.AddN(x, 1) }

// AddN records n observations of x at once; n == 0 records nothing.
// An x that repeats the last run's value bit for bit extends it.
func (s *Sample) AddN(x float64, n int) {
	if n < 0 {
		panic("stats: negative observation count")
	}
	if n == 0 {
		return
	}
	s.n += n
	if last := len(s.runs) - 1; last >= 0 && math.Float64bits(s.runs[last].x) == math.Float64bits(x) {
		s.runs[last].n += n
		return
	}
	if len(s.runs) == cap(s.runs) {
		// Double, where append grows a large slice by a quarter: when
		// every value differs this re-copies half as much.
		s.runs = slices.Grow(s.runs, len(s.runs)+1)
	}
	s.runs = append(s.runs, run{x, n})
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return s.n }

// sort puts the runs in sort.Float64s order (NaN first) and merges
// neighbours that hold the same value.
func (s *Sample) sort() {
	if s.sorted {
		return
	}
	slices.SortFunc(s.runs, func(a, b run) int { return cmp.Compare(a.x, b.x) })
	out := s.runs[:0]
	for _, r := range s.runs {
		if last := len(out) - 1; last >= 0 && math.Float64bits(out[last].x) == math.Float64bits(r.x) {
			out[last].n += r.n
		} else {
			out = append(out, r)
		}
	}
	s.runs = out
	s.sorted = true
}

// Quantile returns the q-th quantile (0 <= q <= 1) by linear interpolation
// between closest ranks. It returns 0 for an empty sample.
func (s *Sample) Quantile(q float64) float64 {
	if s.n == 0 {
		return 0
	}
	s.sort()
	if q <= 0 {
		return s.runs[0].x
	}
	if q >= 1 {
		return s.runs[len(s.runs)-1].x
	}
	pos := q * float64(s.n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	// Find the runs holding ranks lo and lo+1.
	i, end := 0, s.runs[0].n
	for end <= lo {
		i++
		end += s.runs[i].n
	}
	x := s.runs[i].x
	if lo+1 >= s.n {
		return x
	}
	next := x
	if lo+1 == end {
		next = s.runs[i+1].x
	}
	return x*(1-frac) + next*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range s.runs {
		for range r.n {
			sum += r.x
		}
	}
	return sum / float64(s.n)
}

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 {
	if s.n == 0 {
		return 0
	}
	m := s.runs[0].x
	for _, r := range s.runs[1:] {
		if r.x > m {
			m = r.x
		}
	}
	return m
}

// Min returns the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() float64 {
	if s.n == 0 {
		return 0
	}
	m := s.runs[0].x
	for _, r := range s.runs[1:] {
		if r.x < m {
			m = r.x
		}
	}
	return m
}

// Histogram counts observations into fixed-width buckets starting at Lo.
type Histogram struct {
	Lo, Width float64
	Counts    []int64
	under     int64
	over      int64
}

// NewHistogram builds a histogram covering [lo, lo+width*buckets).
func NewHistogram(lo, width float64, buckets int) *Histogram {
	if width <= 0 || buckets <= 0 {
		panic("stats: histogram needs positive width and bucket count")
	}
	return &Histogram{Lo: lo, Width: width, Counts: make([]int64, buckets)}
}

// Add counts one observation. NaN is counted as under-range so that Total
// still accounts for every call.
func (h *Histogram) Add(x float64) {
	if math.IsNaN(x) || x < h.Lo {
		h.under++
		return
	}
	b := (x - h.Lo) / h.Width
	if b >= float64(len(h.Counts)) {
		h.over++
		return
	}
	h.Counts[int(b)]++
}

// Total returns the number of observations including out-of-range ones.
func (h *Histogram) Total() int64 {
	t := h.under + h.over
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Under and Over report out-of-range counts.
func (h *Histogram) Under() int64 { return h.under }

// Over reports the count of observations above the last bucket.
func (h *Histogram) Over() int64 { return h.over }

// Rate tracks a quantity accumulated over a span of virtual seconds and
// reports it as units/second.
type Rate struct {
	total float64
	span  float64
}

// Add accumulates amount over dt seconds.
func (r *Rate) Add(amount, dt float64) {
	r.total += amount
	r.span += dt
}

// PerSecond returns total/span, or 0 if no time has elapsed.
func (r *Rate) PerSecond() float64 {
	if r.span == 0 {
		return 0
	}
	return r.total / r.span
}

// Total returns the accumulated amount.
func (r *Rate) Total() float64 { return r.total }
