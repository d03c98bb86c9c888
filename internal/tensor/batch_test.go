package tensor

import "testing"

func TestGatherScatterRows(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 3, []float64{7, 8, 9, 10, 11, 12, 13, 14, 15})
	dst := New(2, 3)
	GatherRowsInto(dst, []*Matrix{a, b}, []int{1, 2})
	exactEqual(t, "GatherRowsInto", dst, FromSlice(2, 3, []float64{4, 5, 6, 13, 14, 15}))

	oa, ob := New(2, 3), New(3, 3)
	ScatterRowSpansInto([]*Matrix{oa, ob}, []int{0, 2}, 0, dst)
	if got := oa.Row(0); got[0] != 4 || got[1] != 5 || got[2] != 6 {
		t.Fatalf("scatter row 0 got %v", got)
	}
	if got := ob.Row(2); got[0] != 13 || got[1] != 14 || got[2] != 15 {
		t.Fatalf("scatter row 2 got %v", got)
	}

	wide := New(2, 5)
	ScatterRowSpansInto([]*Matrix{wide, wide}, []int{0, 1}, 2, dst)
	if got := wide.Row(0); got[0] != 0 || got[2] != 4 || got[4] != 6 {
		t.Fatalf("span scatter row 0 got %v", got)
	}
	if got := wide.Row(1); got[1] != 0 || got[2] != 13 || got[4] != 15 {
		t.Fatalf("span scatter row 1 got %v", got)
	}
}

func TestGatherScatterShapePanics(t *testing.T) {
	cases := []func(){
		func() { GatherRowsInto(New(1, 3), []*Matrix{New(2, 3), New(2, 3)}, []int{0, 1}) },
		func() { GatherRowsInto(New(2, 3), []*Matrix{New(2, 3), New(2, 4)}, []int{0, 1}) },
		func() { GatherRowsInto(New(2, 3), []*Matrix{New(2, 3), New(2, 3)}, []int{0, 2}) },
		func() { GatherRowsInto(New(2, 3), []*Matrix{New(2, 3)}, []int{0, 1}) },
		func() { ScatterRowSpansInto([]*Matrix{New(2, 3)}, []int{0}, 0, New(2, 3)) },
		func() { ScatterRowSpansInto([]*Matrix{New(2, 3), New(2, 3)}, []int{0}, 0, New(2, 3)) },
		func() { ScatterRowSpansInto([]*Matrix{New(2, 3), New(2, 3)}, []int{0, 5}, 0, New(2, 3)) },
		func() { ScatterRowSpansInto([]*Matrix{New(2, 4), New(2, 4)}, []int{0, 1}, 2, New(2, 3)) },
		func() { ScatterRowSpansInto([]*Matrix{New(2, 4)}, []int{0}, -1, New(1, 3)) },
		func() { ScatterRowSpansInto([]*Matrix{New(2, 4), New(2, 4)}, []int{0, 3}, 0, New(2, 3)) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected shape panic", i)
				}
			}()
			fn()
		}()
	}
}
