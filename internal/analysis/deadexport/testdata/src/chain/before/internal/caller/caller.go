// Package caller holds the one user of callee.Helper, and nobody uses it.
package caller

import "webbrief/internal/analysis/deadexport/testdata/src/chain/before/internal/callee"

func Entry() { callee.Helper() } // want "func Entry has no non-test use"
