// Command app is the fixture's user: a main package outside internal/, so
// nothing it declares is a subject.
package main

import (
	"fmt"

	"webbrief/internal/analysis/deadexport/testdata/src/basic/internal/lib"
)

func Unused() {}

func main() {
	ws := []lib.Widget{{N: 2}, {N: 1}}
	lib.SortWidgets(ws)
	var s lib.Shape = lib.Square{Side: ws[0].Used()}
	b := lib.NewBox(s.Area() + lib.UsedElsewhere())
	fmt.Println(b.Get(), lib.Code(0))
}
