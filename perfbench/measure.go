package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// dist summarizes one latency sample set under the benchmark's percentile
// rule: the median, and the highest percentile up to the requested one that
// still has at least minBeyond samples beyond it. A tail read from fewer
// samples would be the maximum in disguise.
type dist struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	Tail    float64 `json:"tail"`
	TailPct float64 `json:"tail_pct"`
}

// minBeyond is the number of samples that must lie beyond a reported
// percentile.
const minBeyond = 10

// tailPct returns the percentile (as a fraction) reported for n samples
// when want is asked for: want itself when n supports it, otherwise the
// highest percentile with minBeyond samples beyond it, and never below the
// median.
func tailPct(n int, want float64) float64 {
	if n <= 0 {
		return 0.5
	}
	p := 1 - float64(minBeyond)/float64(n)
	if p > want {
		p = want
	}
	if p < 0.5 {
		p = 0.5
	}
	return p
}

// quantile returns the nearest-rank p-quantile of sorted samples: the
// smallest sample with at least p·n samples at or below it.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// summarize sorts samples in place and applies the percentile rule with a
// requested tail of want (0.99 for the p99 metrics).
func summarize(samples []float64, want float64) dist {
	sort.Float64s(samples)
	p := tailPct(len(samples), want)
	return dist{N: len(samples), P50: quantile(samples, 0.5), Tail: quantile(samples, p), TailPct: p}
}

// windowed applies the percentile rule (tail up to p99) within each
// window and returns the medians of the windows' medians and tails, with
// each window's summary. On a shared host a burst of scheduling stalls then
// moves one window's figures instead of the reported ones.
func windowed(windows [][]float64) (p50, tail float64, ds []dist) {
	var p50s, tails []float64
	for _, w := range windows {
		if len(w) == 0 {
			continue
		}
		d := summarize(slices.Clone(w), 0.99)
		ds = append(ds, d)
		p50s = append(p50s, d.P50)
		tails = append(tails, d.Tail)
	}
	return median(p50s), median(tails), ds
}

// splitAt cuts samples into the windows that start at marks.
func splitAt(samples []float64, marks []int) [][]float64 {
	var out [][]float64
	for i, m := range marks {
		end := len(samples)
		if i+1 < len(marks) {
			end = marks[i+1]
		}
		out = append(out, samples[m:end])
	}
	return out
}

// median returns the median of xs (mean of the middle pair for even
// lengths) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// perK returns x per thousand of n (0 when n is 0).
func perK(x, n int64) float64 {
	if n == 0 {
		return 0
	}
	return 1000 * float64(x) / float64(n)
}

// per returns x/n as a float (0 when n is 0).
func per(x, n float64) float64 {
	if n == 0 {
		return 0
	}
	return x / n
}
