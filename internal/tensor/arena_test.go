package tensor

import "testing"

func TestArenaAllocZeroed(t *testing.T) {
	a := NewArena()
	m := a.Alloc(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("fresh alloc not zeroed at %d: %v", i, v)
		}
	}
	// Dirty it, reset, and the next allocation of the same size must be
	// zeroed again even though it reuses the slab.
	for i := range m.Data {
		m.Data[i] = float64(i + 1)
	}
	a.Reset()
	m2 := a.Alloc(3, 4)
	for i, v := range m2.Data {
		if v != 0 {
			t.Fatalf("post-reset alloc not zeroed at %d: %v", i, v)
		}
	}
}

// TestArenaAllocUninit: the uninitialised allocation bumps the same cursor
// as Alloc (distinct, correctly shaped, clipped buffers) and, unlike it,
// leaves the storage alone — which is the saving — while an Alloc that
// follows over the same dirty slab is still zeroed.
func TestArenaAllocUninit(t *testing.T) {
	a := NewArena()
	x := a.AllocUninit(2, 3)
	y := a.AllocUninit(2, 3)
	if x.Rows != 2 || x.Cols != 3 || len(x.Data) != 6 || cap(x.Data) != 6 {
		t.Fatalf("bad shape: %dx%d len %d cap %d", x.Rows, x.Cols, len(x.Data), cap(x.Data))
	}
	for i := range x.Data {
		x.Data[i], y.Data[i] = 1, 2
	}
	if x.Data[5] != 1 || y.Data[0] != 2 {
		t.Fatal("uninitialised allocations alias each other")
	}
	a.Reset()
	if z := a.Alloc(2, 3); z.Data[0] != 0 || z.Data[5] != 0 {
		t.Fatalf("Alloc over storage an AllocUninit dirtied is not zeroed: %v", z.Data)
	}
}

func TestArenaDistinctBuffers(t *testing.T) {
	a := NewArena()
	x := a.Alloc(2, 2)
	y := a.Alloc(2, 2)
	x.Data[0] = 1
	if y.Data[0] != 0 {
		t.Fatal("allocations within one arena pass alias each other")
	}
}

func TestArenaResetReusesMemory(t *testing.T) {
	a := NewArena()
	for i := 0; i < 10; i++ {
		a.Alloc(16, 16)
	}
	before := len(a.slabs)
	for pass := 0; pass < 5; pass++ {
		a.Reset()
		for i := 0; i < 10; i++ {
			a.Alloc(16, 16)
		}
	}
	if got := len(a.slabs); got != before {
		t.Fatalf("slab count grew across identical passes: %d -> %d", before, got)
	}
}

func TestArenaOversizeAllocation(t *testing.T) {
	a := NewArena()
	// Larger than one slab: must still work and still be zeroed.
	big := a.AllocFloats(arenaSlabFloats + 100)
	if len(big) != arenaSlabFloats+100 {
		t.Fatalf("oversize alloc wrong length %d", len(big))
	}
	for i, v := range big {
		if v != 0 {
			t.Fatalf("oversize alloc not zeroed at %d", i)
		}
	}
	// A small alloc after an oversize one must not alias it.
	small := a.AllocFloats(8)
	small[0] = 7
	if big[0] != 0 {
		t.Fatal("small alloc aliases oversize slab")
	}
}

func TestArenaAllocShared(t *testing.T) {
	a := NewArena()
	data := []float64{1, 2, 3, 4, 5, 6}
	m := a.AllocShared(2, 3, data)
	if m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("bad shape %dx%d", m.Rows, m.Cols)
	}
	m.Data[0] = 9
	if data[0] != 9 {
		t.Fatal("AllocShared must wrap the caller's buffer, not copy it")
	}
}

func BenchmarkArenaAllocReset(b *testing.B) {
	a := NewArena()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Reset()
		for j := 0; j < 32; j++ {
			a.Alloc(16, 16)
		}
	}
}
