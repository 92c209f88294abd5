package main

import "sort"

// median is the middle value, or the mean of the two middle values; 0
// for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// durationsPercentiles sorts ns in place and returns the requested
// percentiles (0..100, nearest rank) in the same order; zeros for an
// empty sample.
func durationsPercentiles(ns []int64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(ns) == 0 {
		return out
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	for i, p := range ps {
		rank := int(p/100*float64(len(ns))+0.999999) - 1
		if rank < 0 {
			rank = 0
		}
		if rank >= len(ns) {
			rank = len(ns) - 1
		}
		out[i] = float64(ns[rank])
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
