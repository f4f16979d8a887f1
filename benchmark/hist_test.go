package main

import (
	"testing"
	"time"
)

func TestHistResolution(t *testing.T) {
	// Every value from 10 µs to 100 s must land in a bucket whose upper
	// edge is within 1 % above it.
	for d := 10 * time.Microsecond; d <= 100*time.Second; d += d/97 + 1 {
		up := histUpper(histIndex(d))
		if up < d {
			t.Fatalf("upper edge %v below sample %v", up, d)
		}
		if float64(up-d) > 0.01*float64(d) {
			t.Fatalf("bucket of %v reads %v: %.3f%% off", d, up, 100*float64(up-d)/float64(d))
		}
	}
	// Bucket edges are monotone, so percentiles are too.
	for i := 1; i < histBuckets; i++ {
		if histUpper(i) <= histUpper(i-1) {
			t.Fatalf("bucket %d edge %v not above %v", i, histUpper(i), histUpper(i-1))
		}
	}
}

func TestHistPercentileNeedsSamplesBeyond(t *testing.T) {
	var h hist
	for i := 1; i <= 1000; i++ {
		h.record(time.Duration(i) * time.Millisecond)
	}
	p50, ok := h.percentile(50)
	if !ok || p50 < 500*time.Millisecond || p50 > 505*time.Millisecond {
		t.Fatalf("p50 = %v ok=%v", p50, ok)
	}
	if p99, ok := h.percentile(99); !ok || p99 < 990*time.Millisecond || p99 > 1000*time.Millisecond {
		t.Fatalf("p99 = %v ok=%v", p99, ok)
	}
	// 1000 samples leave one sample beyond p99.9: refused.
	if _, ok := h.percentile(99.9); ok {
		t.Fatal("p99.9 of 1000 samples reported as supported")
	}
	var empty hist
	if _, ok := empty.percentile(50); ok {
		t.Fatal("percentile of an empty histogram reported as supported")
	}
}

func TestHistMerge(t *testing.T) {
	var a, b hist
	a.record(time.Millisecond)
	b.record(2 * time.Millisecond)
	b.record(-time.Second) // clamps to zero
	a.merge(&b)
	if a.count() != 3 {
		t.Fatalf("merged count = %d", a.count())
	}
}
