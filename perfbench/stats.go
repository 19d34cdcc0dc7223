package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the two closest ranks of the sorted raw samples (Hyndman-Fan type 7),
// so a percentile is exact to the samples, never a histogram bucket.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// summary is the distribution record a run keeps for every sampled
// quantity: sample count, quartiles and the tail.
type summary struct {
	N   int     `json:"n"`
	Q1  float64 `json:"q1"`
	P50 float64 `json:"p50"`
	Q3  float64 `json:"q3"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	return summary{
		N:   len(xs),
		Q1:  quantile(xs, 0.25),
		P50: quantile(xs, 0.5),
		Q3:  quantile(xs, 0.75),
		P90: quantile(xs, 0.9),
		P99: quantile(xs, 0.99),
	}
}
