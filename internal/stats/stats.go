// Package stats provides the small set of streaming statistics used by the
// experiment harnesses: online mean/variance (Welford), exact quantiles
// over retained samples, fixed-width histograms and throughput meters.
package stats

import (
	"fmt"
	"math"
	"sort"
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

// sampleChunk is the number of observations per storage block: 32 KB,
// large enough that the block list stays short for millions of points,
// small enough that an almost-empty Sample costs little.
const sampleChunk = 4096

// Sample retains every observation for exact quantile queries. It is meant
// for experiment-sized data (up to a few million points).
//
// Observations are kept in arrival order as xs followed by chunks.
// Adding fills fixed-size chunks, so growth never re-copies what is
// already stored; the first read concatenates everything into xs once
// (flat), and quantiles sort it there.
type Sample struct {
	xs     []float64
	chunks [][]float64
	n      int
	sorted bool // no chunks, and xs is in ascending order
}

// Add appends an observation.
func (s *Sample) Add(x float64) {
	last := len(s.chunks) - 1
	if last < 0 || len(s.chunks[last]) == cap(s.chunks[last]) {
		s.chunks = append(s.chunks, make([]float64, 0, sampleChunk))
		last++
	}
	s.chunks[last] = append(s.chunks[last], x)
	s.n++
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return s.n }

// flat returns every observation as one slice, in arrival order since
// the last sort, moving the chunks filled since the last read onto xs.
func (s *Sample) flat() []float64 {
	if len(s.chunks) > 0 {
		if s.xs == nil {
			s.xs = make([]float64, 0, s.n)
		}
		for _, c := range s.chunks {
			s.xs = append(s.xs, c...)
		}
		s.chunks = nil
	}
	return s.xs
}

// Quantile returns the q-th quantile (0 <= q <= 1) by linear interpolation
// between closest ranks. It returns 0 for an empty sample.
func (s *Sample) Quantile(q float64) float64 {
	xs := s.flat()
	if len(xs) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(xs)
		s.sorted = true
	}
	if q <= 0 {
		return xs[0]
	}
	if q >= 1 {
		return xs[len(xs)-1]
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(xs) {
		return xs[lo]
	}
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	xs := s.flat()
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 {
	xs := s.flat()
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() float64 {
	xs := s.flat()
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
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
