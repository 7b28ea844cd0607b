// Package stats provides the small statistical toolkit used by the
// experiment harness: moments, histograms, Hamming distances (for the PHT
// size discovery of §6.3), error rates and frequency tables.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs, or 0 when fewer
// than two samples are present.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// MeanUint64 returns the mean of unsigned samples as a float64.
func MeanUint64(xs []uint64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}

// StdDevUint64 returns the population standard deviation of unsigned
// samples.
func StdDevUint64(xs []uint64) float64 {
	if len(xs) < 2 {
		return 0
	}
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return StdDev(fs)
}

// Median returns the median of xs (the mean of the two central elements
// for even lengths), or 0 for an empty slice. xs is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// MedianUint64 returns the median of unsigned samples. Detectors prefer
// it over the mean because heavy-tailed timing noise (interrupt spikes)
// inflates means without moving typical samples.
func MedianUint64(xs []uint64) float64 {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return Median(fs)
}

// ErrorRate returns the fraction of positions where got differs from want.
// It panics if the slices have different lengths, since comparing
// misaligned bit streams silently would corrupt every experiment using it.
func ErrorRate(got, want []bool) float64 {
	if len(got) != len(want) {
		panic(fmt.Sprintf("stats: ErrorRate length mismatch: %d vs %d", len(got), len(want)))
	}
	if len(got) == 0 {
		return 0
	}
	errs := 0
	for i := range got {
		if got[i] != want[i] {
			errs++
		}
	}
	return float64(errs) / float64(len(got))
}

// Hamming returns the number of positions at which a and b differ. It
// panics on length mismatch.
func Hamming[T comparable](a, b []T) int {
	if len(a) != len(b) {
		panic(fmt.Sprintf("stats: Hamming length mismatch: %d vs %d", len(a), len(b)))
	}
	d := 0
	for i := range a {
		if a[i] != b[i] {
			d++
		}
	}
	return d
}

// Freq counts occurrences of each value in xs.
func Freq[T comparable](xs []T) map[T]int {
	m := make(map[T]int)
	for _, x := range xs {
		m[x]++
	}
	return m
}

// Mode returns the most frequent value in xs and its share of the total.
// Ties go to the value that occurs first in xs, so the result does not
// depend on map iteration order. For an empty slice it returns the zero
// value and 0.
func Mode[T comparable](xs []T) (T, float64) {
	var best T
	if len(xs) == 0 {
		return best, 0
	}
	counts := Freq(xs)
	bestN := 0
	for _, v := range xs {
		if n := counts[v]; n > bestN {
			best, bestN = v, n
		}
	}
	return best, float64(bestN) / float64(len(xs))
}

// Histogram is a fixed-bin histogram over float64 samples.
type Histogram struct {
	Min, Max float64
	Counts   []int
	// Under and Over count samples falling outside [Min, Max).
	Under, Over int
	total       int
}

// NewHistogram creates a histogram with bins equal-width bins over
// [min, max). It panics on a degenerate range or bin count.
func NewHistogram(min, max float64, bins int) *Histogram {
	if bins <= 0 || max <= min {
		panic("stats: degenerate histogram")
	}
	return &Histogram{Min: min, Max: max, Counts: make([]int, bins)}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	h.total++
	switch {
	case x < h.Min:
		h.Under++
	case x >= h.Max:
		h.Over++
	default:
		i := int((x - h.Min) / (h.Max - h.Min) * float64(len(h.Counts)))
		if i == len(h.Counts) { // guard FP edge
			i--
		}
		h.Counts[i]++
	}
}

// Total returns the number of samples recorded, including out-of-range
// ones.
func (h *Histogram) Total() int { return h.total }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Max - h.Min) / float64(len(h.Counts))
	return h.Min + (float64(i)+0.5)*w
}

// Summary holds the first two moments of a sample set, convenient for
// rendering "mean ± stddev" rows.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Mean = Mean(xs)
	s.StdDev = StdDev(xs)
	s.Min, s.Max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	return s
}

// SummarizeUint64 computes a Summary of unsigned samples.
func SummarizeUint64(xs []uint64) Summary {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return Summarize(fs)
}

// String renders the summary as "mean ± stddev (n=N)".
func (s Summary) String() string {
	return fmt.Sprintf("%.1f ± %.1f (n=%d)", s.Mean, s.StdDev, s.N)
}

// Percent formats a ratio as a percentage with two decimals, the format
// used by the paper's error-rate tables.
func Percent(r float64) string {
	return fmt.Sprintf("%.2f%%", 100*r)
}
