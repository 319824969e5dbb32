package main

import "sort"

// summary reduces the timed reps of one metric. A handful of samples
// supports no percentile beyond the median, so the median is reported
// with the extremes and the count beside it.
type summary struct {
	median, min, max float64
	n                int
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := s[len(s)/2]
	if len(s)%2 == 0 {
		mid = (s[len(s)/2-1] + mid) / 2
	}
	return summary{median: mid, min: s[0], max: s[len(s)-1], n: len(s)}
}
