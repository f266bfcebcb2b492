package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks; 0 when xs is empty. xs is not
// modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func share(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}

// histQuantile estimates the q-quantile of the observations that a
// cumulative Prometheus histogram gained between two scrapes, by linear
// interpolation inside the bucket that holds the rank. le maps each
// finite upper bound to its cumulative count delta; total is the
// _count delta. Observations beyond the last finite bound report that
// bound.
func histQuantile(le map[float64]float64, total, q float64) float64 {
	if total <= 0 {
		return 0
	}
	bounds := make([]float64, 0, len(le))
	for b := range le {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	rank := q * total
	prevBound, prevCount := 0.0, 0.0
	for _, b := range bounds {
		c := le[b]
		if c >= rank {
			if c == prevCount {
				return b
			}
			return prevBound + (b-prevBound)*(rank-prevCount)/(c-prevCount)
		}
		prevBound, prevCount = b, c
	}
	return prevBound
}
