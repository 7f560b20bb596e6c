package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestTailBeyondRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted input
	}
	v, p, ok := tail(xs)
	if !ok || v != 90 || p != 90 {
		t.Fatalf("tail of 1..100 = %v at p%v ok=%v, want 90 at p90", v, p, ok)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Errorf("tail %v has %d samples beyond it, want %d", v, beyond, tailBeyond)
	}
	// With n = 11 the only qualifying percentile is the minimum.
	v, p, ok = tail(xs[89:])
	if !ok || v != 1 || math.Abs(p-100.0/11) > 1e-9 {
		t.Errorf("tail of 11 samples = %v at p%v ok=%v, want 1 at p9.09", v, p, ok)
	}
	if v, _, ok := tail(xs[90:]); ok || v != 10 {
		t.Errorf("10 samples: tail %v ok=%v, want the maximum 10 and ok=false", v, ok)
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP ntvsimd_http_requests_total Requests.
# TYPE ntvsimd_http_requests_total counter
ntvsimd_http_requests_total{method="GET",code="200"} 202
ntvsimd_http_requests_total{method="POST",code="202"} 11
ntvsim_mc_samples_evaluated_total 1.21e+06
ntvsimd_http_request_duration_seconds_bucket{le="+Inf"} 213
ntvsim_build_info{version="v0 {x}",go="go1.24.0"} 1
garbage line
ntvsim_bad_value abc
`
	got := parseProm(text)
	for name, want := range map[string]float64{
		"ntvsimd_http_requests_total":                  213,
		"ntvsim_mc_samples_evaluated_total":            1.21e6,
		"ntvsimd_http_request_duration_seconds_bucket": 213,
		"ntvsim_build_info":                            1,
	} {
		if got[name] != want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
	if _, ok := got["ntvsim_bad_value"]; ok {
		t.Error("unparseable value was kept")
	}
	before := parseProm("ntvsimd_cache_hits_total 5\n")
	after := parseProm("ntvsimd_cache_hits_total 12\nntvsimd_cache_misses_total 3\n")
	if d := delta(before, after, "ntvsimd_cache_hits_total"); d != 7 {
		t.Errorf("hits delta = %v, want 7", d)
	}
	if d := delta(before, after, "ntvsimd_cache_misses_total"); d != 3 {
		t.Errorf("a family absent before counts from zero: delta = %v, want 3", d)
	}
}
