package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a quantile for it to be
// reported: ten, so one slow request cannot place a percentile by itself.
const minBeyond = 10

// quantile returns the q-quantile of sorted by linear interpolation. It
// refuses a quantile with fewer than minBeyond samples on its far side.
func quantile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	beyond := float64(n) * math.Min(q, 1-q)
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %.1f beyond it, need %d", 100*q, n, beyond, minBeyond)
	}
	at := q * float64(n-1)
	lo := int(at)
	if lo+1 >= n {
		return sorted[n-1], nil
	}
	return sorted[lo] + (at-float64(lo))*(sorted[lo+1]-sorted[lo]), nil
}

// quantileOrZero is quantile for per-layer breakdowns, where a class with
// too few samples reports 0 rather than failing the run.
func quantileOrZero(samples []float64, q float64) float64 {
	sort.Float64s(samples)
	v, err := quantile(samples, q)
	if err != nil {
		return 0
	}
	return v
}

// median of a few repeated measurements (set-up times, a side's runs); no
// sample rule, and 0 of none.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
