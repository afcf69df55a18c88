package main

import (
	"math"
	"sort"
	"time"
)

// summary is the distribution of one metric's samples within a run: the
// median, the quartiles, and the highest standard percentile that still has
// at least ten samples beyond it.
type summary struct {
	N     int     `json:"n"`
	Min   float64 `json:"min"`
	P25   float64 `json:"p25"`
	P50   float64 `json:"p50"`
	P75   float64 `json:"p75"`
	Tail  float64 `json:"tail"`
	TailQ float64 `json:"tail_q"`
	Max   float64 `json:"max"`
}

// tailQuantiles are the candidate tail percentiles, highest first. p99 is the
// cap so that a run with a few more samples never switches an end-to-end
// metric to a different percentile.
var tailQuantiles = []float64{0.99, 0.9, 0.5}

// tailQuantile returns the highest of tailQuantiles that leaves at least ten
// of n samples beyond it, or the median when none does.
func tailQuantile(n int) float64 {
	for _, q := range tailQuantiles {
		if beyond := float64(n) * (1 - q); beyond >= 10-1e-9 {
			return q
		}
	}
	return 0.5
}

// quantile returns the q-quantile of sorted by linear interpolation between
// closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	if frac == 0 {
		return sorted[lo] // also keeps an infinite neighbour from turning the result into NaN
	}
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func summarize(samples []float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if len(s) == 0 {
		return summary{}
	}
	q := tailQuantile(len(s))
	return summary{
		N:     len(s),
		Min:   s[0],
		P25:   quantile(s, 0.25),
		P50:   quantile(s, 0.5),
		P75:   quantile(s, 0.75),
		Tail:  quantile(s, q),
		TailQ: q,
		Max:   s[len(s)-1],
	}
}

func median(samples []float64) float64 { return summarize(samples).P50 }

// geomean is the geometric mean of positive values.
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range vals {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}

// tally counts attempted operations and the ways they failed. Every failure
// kind counts toward failed_ratio: an error, a shed (HTTP 429 or the stream
// overloaded status), a timeout, or an output that disagrees with its
// reference.
type tally struct {
	Attempted  int64 `json:"attempted"`
	Errors     int64 `json:"errors"`
	Shed       int64 `json:"shed"`
	Timeouts   int64 `json:"timeouts"`
	Mismatches int64 `json:"mismatches"`
}

func (t *tally) failed() int64 { return t.Errors + t.Shed + t.Timeouts + t.Mismatches }

func (t *tally) ratio() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.Attempted)
}

func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Errors += o.Errors
	t.Shed += o.Shed
	t.Timeouts += o.Timeouts
	t.Mismatches += o.Mismatches
}

// windowRates splits [from, to) into windows of length win and returns, for
// each whole window, the summed weight of the events falling in it per
// second. Their interquartile mean is a throughput that a short stall,
// which empties a window, cannot move.
func windowRates(at []time.Duration, weight []float64, from, to, win time.Duration) []float64 {
	n := int((to - from) / win)
	if n <= 0 {
		return nil
	}
	sums := make([]float64, n)
	for i, t := range at {
		if t >= from && t < from+time.Duration(n)*win {
			sums[int((t-from)/win)] += weight[i]
		}
	}
	for i := range sums {
		sums[i] /= win.Seconds()
	}
	return sums
}

// interquartileMean is the mean of the samples between the first and third
// quartiles: as robust as the median, but not stuck to the grid that
// per-window counts fall on.
func interquartileMean(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	sum := 0.0
	for _, v := range mid {
		sum += v
	}
	return sum / float64(len(mid))
}
