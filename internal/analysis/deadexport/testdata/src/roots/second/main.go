// Command second lives in its own module, as bench/ does, and reaches the
// first module's internal packages through a replace directive.
package main

import "webbrief/internal/analysis/deadexport/testdata/src/roots/internal/lib"

func main() {
	lib.OnlySecond()
	lib.Handle{}.Close()
}
