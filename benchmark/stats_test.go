package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

// The percentile rule: nearest rank, and no value unless at least ten
// samples lie beyond it.
func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{0, 0.95, 0, false},
		{100, 0.95, 95, false},  // 5 beyond
		{199, 0.95, 190, false}, // rank 190, 9 beyond
		{200, 0.95, 190, true},  // rank 190, exactly 10 beyond
		{1000, 0.95, 950, true},
		{1000, 0.99, 990, true}, // exactly 10 beyond
		{999, 0.99, 990, false}, // rank 990, 9 beyond
		{20, 0.5, 10, true},     // a median has half the sample beyond it
		{19, 0.5, 10, false},    // rank 10, 9 beyond
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

func TestMedianAndTail(t *testing.T) {
	if got := median(seq(5)); got != 3 {
		t.Errorf("median(1..5) = %v, want 3", got)
	}
	if got := median(seq(4)); got != 2 {
		t.Errorf("median(1..4) = %v, want 2 (nearest rank)", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	// tail falls back to the median when p95 is unsupported.
	if got := tail(seq(100)); got != 50 {
		t.Errorf("tail(1..100) = %v, want the median 50", got)
	}
	if got := tail(seq(200)); got != 190 {
		t.Errorf("tail(1..200) = %v, want p95 190", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio(1, 0) = %v, want 0", got)
	}
}

// blockRate takes the median block, so a stall inside one block does not
// move it, and it falls back to count over time when blocks would be empty.
func TestBlockRate(t *testing.T) {
	at := func(stall time.Duration) []time.Duration {
		var done []time.Duration
		now := time.Duration(0)
		for i := 0; i < 150; i++ {
			now += 10 * time.Millisecond
			if i == 42 {
				now += stall
			}
			done = append(done, now)
		}
		return done
	}
	for _, stall := range []time.Duration{0, 5 * time.Second} {
		if got := blockRate(at(stall), 15); math.Abs(got-100) > 1e-9 {
			t.Errorf("blockRate with a %v stall = %v ops/s, want 100", stall, got)
		}
	}
	// Completion order, not slice order, decides the blocks.
	rev := at(0)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	if got := blockRate(rev, 15); math.Abs(got-100) > 1e-9 {
		t.Errorf("blockRate of reversed input = %v ops/s, want 100", got)
	}
	if got := blockRate(at(0)[:4], 15); math.Abs(got-100) > 1e-9 {
		t.Errorf("blockRate of 4 ops = %v ops/s, want 100 (count over time)", got)
	}
	if got := blockRate(nil, 15); got != 0 {
		t.Errorf("blockRate(nil) = %v, want 0", got)
	}
}
