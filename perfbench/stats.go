package main

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// minBeyond is the fewest samples that must lie beyond a reported
// percentile: with fewer, the "percentile" is a handful of outliers.
const minBeyond = 10

// histSub sets hist's resolution: values below 2*2^histSub have a bucket
// each, and every power of two above is cut into 2^histSub buckets, so a
// bucket is at most 0.2% wide.
const histSub = 9

// histBuckets is enough buckets for any uint64.
const histBuckets = (64 - histSub + 1) << histSub

// hist counts non-negative integer samples in log-linear buckets, so a
// run keeps every sample's contribution in fixed memory however many
// requests it completes.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

// bucketOf returns v's bucket index.
func bucketOf(v uint64) int {
	if v < 2<<histSub {
		return int(v)
	}
	shift := bits.Len64(v) - histSub - 1
	return shift<<histSub + int(v>>shift)
}

// bucketValue returns the midpoint of bucket i.
func bucketValue(i int) float64 {
	if i < 2<<histSub {
		return float64(i)
	}
	shift := i>>histSub - 1
	lower := uint64(i-shift<<histSub) << shift
	return float64(lower) + float64(uint64(1)<<shift-1)/2
}

// add counts one sample.
func (h *hist) add(v uint64) {
	h.counts[bucketOf(v)]++
	h.n++
}

// merge adds o's samples to h.
func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// mergeScaled adds o's samples to h, each multiplied by f.
func (h *hist) mergeScaled(o *hist, f float64) {
	for i, c := range o.counts {
		if c > 0 {
			h.counts[bucketOf(uint64(math.Round(bucketValue(i)*f)))] += c
		}
	}
	h.n += o.n
}

// quantile returns the nearest-rank p-quantile (0 < p < 1) to within a
// bucket, and the number of samples beyond it. It refuses a quantile with
// fewer than need samples beyond.
func (h *hist) quantile(p float64, need int) (v float64, beyond uint64, err error) {
	rank := min(max(uint64(math.Ceil(p*float64(h.n))), 1), h.n)
	beyond = h.n - rank
	if h.n == 0 || beyond < uint64(need) {
		return 0, beyond, fmt.Errorf("p%g needs %d samples beyond it; %d samples leave %d", p*100, need, h.n, beyond)
	}
	var seen uint64
	for i, c := range h.counts {
		if seen += c; seen >= rank {
			return bucketValue(i), beyond, nil
		}
	}
	return 0, beyond, errors.New("hist: counts disagree with n")
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), sorting a copy; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio divides, returning 0 for a zero denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
