package wb

import (
	"sync"
	"testing"
)

func testBriefer(t *testing.T) *Briefer {
	t.Helper()
	insts, v := testData(t, 2, 4)
	m := newTestJointWB(v, 51)
	tc := DefaultTrainConfig()
	tc.Epochs = 2
	TrainModel(m, insts, tc)
	return NewBriefer(m, v, 2, 0)
}

const testPageHTML = `<html><body><main>
<h1>title : novel edition</h1>
<div>price : $ 9.99</div>
</main></body></html>`

func TestBrieferBriefHTML(t *testing.T) {
	b := testBriefer(t)
	brief, err := b.BriefHTML(testPageHTML)
	if err != nil {
		t.Fatal(err)
	}
	if brief == nil || brief.Sections == nil {
		t.Fatal("incomplete brief")
	}
	if _, err := b.BriefHTML("<script>only()</script>"); err == nil {
		t.Fatal("text-free page must error")
	}
}

func TestBrieferConcurrentRequests(t *testing.T) {
	b := testBriefer(t)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = b.BriefHTML(testPageHTML)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}
