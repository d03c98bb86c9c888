package main

import (
	"math"
	"testing"
	"time"
)

// TestSpeedProfile: a slice's slowdown is the mean of its units over
// calibRef, a slice without a unit takes its nearest neighbour's, and
// reference seconds weigh each slice's length by its slowdown.
func TestSpeedProfile(t *testing.T) {
	at := func(slice int, took time.Duration) calibSample {
		return calibSample{at: time.Duration(slice)*calibSlice + calibSlice/2, took: took}
	}
	samples := []calibSample{
		at(0, calibRef), at(0, 3*calibRef), // mean 2: one unit lost a scheduler quantum
		at(1, calibRef),
		// slice 2: none
		at(3, 4*calibRef),
		at(9, 4*calibRef), // past the end of the run: counts for the last slice
	}
	elapsed := 3*calibSlice + calibSlice/2
	p, err := buildProfile(samples, elapsed)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 1, 1, 4}
	if len(p.slow) != len(want) {
		t.Fatalf("%d slices, want %d", len(p.slow), len(want))
	}
	for k, w := range want {
		if p.slow[k] != w {
			t.Errorf("slice %d slowdown %v, want %v", k, p.slow[k], w)
		}
	}
	if got := p.at(calibSlice + time.Millisecond); got != 1 {
		t.Errorf("slowdown just into slice 1 = %v, want 1", got)
	}
	if got := p.at(time.Hour); got != 4 {
		t.Errorf("slowdown past the end = %v, want the last slice's 4", got)
	}
	// 1/2 + 1 + 1 slices at full length, and half a slice at a quarter speed.
	wantRef := calibSlice.Seconds() * (0.5 + 1 + 1 + 0.5/4)
	if got := p.refSeconds(elapsed); math.Abs(got-wantRef) > 1e-9 {
		t.Errorf("reference seconds = %v, want %v", got, wantRef)
	}
	if _, err := buildProfile(nil, elapsed); err == nil {
		t.Error("a run without a calibration unit must be an error")
	}
}

// TestCalibrationUnitRepeats: a unit is the same work every time. It leaves
// its inputs as it found them, ends on the same values as the unit before,
// and those are ordinary numbers: not NaN, and not the denormals that would
// make the arithmetic slow.
func TestCalibrationUnitRepeats(t *testing.T) {
	c := newCalibrator()
	ints := append([]int(nil), c.ints...)
	x0 := append([]float64(nil), c.x0...)
	if c.unit() <= 0 {
		t.Fatal("a unit took no time")
	}
	after := append([]float64(nil), c.x...)
	c.unit()
	for i, v := range c.ints {
		if v != ints[i] {
			t.Fatal("a unit reordered its input: the next one would sort sorted data")
		}
	}
	for j, v := range c.x {
		if c.x0[j] != x0[j] {
			t.Fatal("a unit changed its starting vector")
		}
		if v != after[j] {
			t.Fatalf("x[%d] = %v after the second unit, %v after the first", j, v, after[j])
		}
		if math.IsNaN(v) || math.Abs(v) > 1 || (v != 0 && math.Abs(v) < 1e-300) {
			t.Fatalf("x[%d] = %v: not a normal number inside tanh's range", j, v)
		}
	}
}
