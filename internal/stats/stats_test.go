package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/testutil"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d, want 8", w.N())
	}
	if !almostEqual(w.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", w.Mean())
	}
	// Unbiased variance of that set is 32/7.
	if !almostEqual(w.Var(), 32.0/7.0, 1e-12) {
		t.Fatalf("Var = %v, want %v", w.Var(), 32.0/7.0)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v, want 2/9", w.Min(), w.Max())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.Std() != 0 {
		t.Fatal("empty Welford should report zeros")
	}
	w.Add(3.5)
	if w.Mean() != 3.5 || w.Var() != 0 {
		t.Fatalf("single-sample Mean/Var = %v/%v", w.Mean(), w.Var())
	}
}

// Property: Welford mean matches naive mean for arbitrary inputs.
func TestWelfordMatchesNaive(t *testing.T) {
	f := func(xs []float64) bool {
		// Filter non-finite values quick may generate via NaN injection.
		var clean []float64
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		var w Welford
		sum := 0.0
		for _, x := range clean {
			w.Add(x)
			sum += x
		}
		naive := sum / float64(len(clean))
		scale := math.Max(1, math.Abs(naive))
		return almostEqual(w.Mean(), naive, 1e-6*scale)
	}
	if err := quick.Check(f, testutil.Quick(t, 0)); err != nil {
		t.Fatal(err)
	}
}

func TestSampleQuantiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("Q0 = %v, want 1", got)
	}
	if got := s.Quantile(1); got != 100 {
		t.Fatalf("Q1 = %v, want 100", got)
	}
	if got := s.Median(); !almostEqual(got, 50.5, 1e-9) {
		t.Fatalf("median = %v, want 50.5", got)
	}
	if got := s.Quantile(0.99); got < 99 || got > 100 {
		t.Fatalf("P99 = %v, want in [99,100]", got)
	}
}

func TestSampleUnsortedInput(t *testing.T) {
	var s Sample
	for _, x := range []float64{9, 1, 5, 3, 7} {
		s.Add(x)
	}
	if s.Median() != 5 {
		t.Fatalf("median = %v, want 5", s.Median())
	}
	if s.Min() != 1 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
	// Adding after a query must invalidate the sort.
	s.Add(0.5)
	if s.Min() != 0.5 {
		t.Fatalf("min after add = %v, want 0.5", s.Min())
	}
	if got := s.Quantile(0); got != 0.5 {
		t.Fatalf("Q0 after add = %v, want 0.5", got)
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Quantile(0.5) != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty sample should report zeros")
	}
}

// refSample is Sample as it was before chunked storage — one slice,
// append, sort on read — the reference the chunked one must match
// exactly, summation order included.
type refSample struct{ xs []float64 }

func (r *refSample) quantile(q float64) float64 {
	sort.Float64s(r.xs)
	pos := q * float64(len(r.xs)-1)
	lo := int(pos)
	if lo+1 >= len(r.xs) {
		return r.xs[lo]
	}
	frac := pos - float64(lo)
	return r.xs[lo]*(1-frac) + r.xs[lo+1]*frac
}

func (r *refSample) mean() float64 {
	sum := 0.0
	for _, x := range r.xs {
		sum += x
	}
	return sum / float64(len(r.xs))
}

// TestSampleChunkedMatchesReference drives Sample across several chunk
// boundaries, interleaving adds and reads, and compares every
// read with the single-slice reference bit for bit.
func TestSampleChunkedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s Sample
	var ref refSample
	compare := func(when string) {
		t.Helper()
		if s.N() != len(ref.xs) {
			t.Fatalf("%s: N = %d, want %d", when, s.N(), len(ref.xs))
		}
		// Mean first: it sums in arrival order until a quantile sorts.
		if got, want := s.Mean(), ref.mean(); got != want {
			t.Fatalf("%s: Mean = %v, want %v", when, got, want)
		}
		for _, q := range []float64{0, 0.001, 0.5, 0.99, 1} {
			if got, want := s.Quantile(q), ref.quantile(q); got != want {
				t.Fatalf("%s: Q(%v) = %v, want %v", when, q, got, want)
			}
		}
		if s.Max() != ref.xs[len(ref.xs)-1] || s.Min() != ref.xs[0] || s.Mean() != ref.mean() {
			t.Fatalf("%s: Min/Max/Mean after sorting differ from the reference", when)
		}
	}
	add := func(n int) {
		for i := 0; i < n; i++ {
			x := rng.NormFloat64() * 1e6
			s.Add(x)
			ref.xs = append(ref.xs, x)
		}
	}
	add(1)
	compare("one observation")
	add(sampleChunk - 1)
	compare("exactly one chunk")
	add(2*sampleChunk + 17)
	compare("adds after a sorted read")
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5) // [0,50) in 5 buckets
	for _, x := range []float64{-1, 0, 9.99, 10, 25, 49.9, 50, 1000} {
		h.Add(x)
	}
	if h.Under() != 1 {
		t.Fatalf("under = %d, want 1", h.Under())
	}
	if h.Over() != 2 {
		t.Fatalf("over = %d, want 2", h.Over())
	}
	if h.Counts[0] != 2 || h.Counts[1] != 1 || h.Counts[2] != 1 || h.Counts[4] != 1 {
		t.Fatalf("bucket counts = %v", h.Counts)
	}
	if h.Total() != 8 {
		t.Fatalf("total = %d, want 8", h.Total())
	}
}

func TestHistogramPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHistogram(0,0,0) did not panic")
		}
	}()
	NewHistogram(0, 0, 0)
}

func TestRate(t *testing.T) {
	var r Rate
	if r.PerSecond() != 0 {
		t.Fatal("empty rate should be 0")
	}
	r.Add(100, 2) // 100 units over 2 s
	r.Add(50, 1)  // 50 units over 1 s
	if !almostEqual(r.PerSecond(), 50, 1e-12) {
		t.Fatalf("rate = %v, want 50", r.PerSecond())
	}
	if r.Total() != 150 {
		t.Fatalf("total = %v, want 150", r.Total())
	}
}

// Property: histogram total always equals the number of Add calls.
func TestHistogramTotalProperty(t *testing.T) {
	f := func(xs []float64) bool {
		h := NewHistogram(-100, 7, 30)
		n := 0
		for _, x := range xs {
			if math.IsNaN(x) {
				continue
			}
			h.Add(x)
			n++
		}
		return h.Total() == int64(n)
	}
	if err := quick.Check(f, testutil.Quick(t, 0)); err != nil {
		t.Fatal(err)
	}
}
