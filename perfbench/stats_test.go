package main

import (
	"math"
	"testing"
)

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{100000, 0.99}, {1000, 0.99}, {999, 0.9}, {100, 0.9}, {99, 0.5}, {20, 0.5}, {5, 0.5}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	for _, n := range []int{20, 100, 999, 1000, 5000} {
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = float64(n - i) // unsorted on purpose
		}
		s := summarize(samples)
		beyond := 0
		for _, v := range samples {
			if v > s.Tail {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: p%v = %v has %d samples beyond it, want at least 10", n, s.TailQ*100, s.Tail, beyond)
		}
		if s.N != n || s.Min != 1 || s.Max != float64(n) || s.P50 != float64(n+1)/2 {
			t.Errorf("n=%d: summary %+v", n, s)
		}
	}
}

func TestQuantileWithInfiniteSamples(t *testing.T) {
	s := []float64{1, 2, 3, math.Inf(1)}
	if got := quantile(s, 1); !math.IsInf(got, 1) {
		t.Errorf("quantile(1) = %v, want +Inf", got)
	}
	if got := quantile(s, 0.5); got != 2.5 {
		t.Errorf("quantile(0.5) = %v, want 2.5", got)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "phase", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "phase", Start: 20, End: 50},  // overlaps the first child
		{ID: 4, Parent: 1, Name: "phase", Start: 90, End: 120}, // runs past the parent
	}
	got := selfTimes(spans)
	if c := got["client"]; c.Count != 1 || c.SelfMs*1e6 != 100-40-10 {
		t.Errorf("client self time %+v, want 50ns", c)
	}
	if p := got["phase"]; p.Count != 3 || p.SelfMs*1e6 != 20+30+30 {
		t.Errorf("phase self time %+v", p)
	}
}

func TestInterquartileMean(t *testing.T) {
	if got := interquartileMean([]float64{100, 1, 2, 3, 4, 5, 6, 0}); got != 3.5 {
		t.Errorf("interquartileMean = %v, want 3.5 (the outliers 0 and 100 dropped)", got)
	}
}
