package main

import "testing"

func TestMeanMedian(t *testing.T) {
	if got := mean(nil); got != 0 {
		t.Errorf("mean(nil) = %v, want 0", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of odd count = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
}

// TestPercentile pins the nearest-rank definition and the count of samples
// beyond the percentile, which decides whether a percentile is reportable.
func TestPercentile(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		q          float64
		want       float64
		wantBeyond int
	}{
		{0.50, 5, 5},
		{0.90, 9, 1},
		{0.99, 10, 0},
		{0.05, 1, 9},
		{1.00, 10, 0},
	}
	for _, c := range cases {
		got, beyond := percentile(ten, c.q)
		if got != c.want || beyond != c.wantBeyond {
			t.Errorf("percentile(1..10, %v) = %v with %d beyond, want %v with %d", c.q, got, beyond, c.want, c.wantBeyond)
		}
	}
	// 2 000 samples leave exactly 200 beyond p90, the issue's floor.
	if _, beyond := percentile(make([]float64, 2000), 0.90); beyond != 200 {
		t.Errorf("p90 of 2000 samples has %d beyond, want 200", beyond)
	}
	if v, beyond := percentile(nil, 0.5); v != 0 || beyond != 0 {
		t.Errorf("percentile(nil) = %v, %d", v, beyond)
	}
}
