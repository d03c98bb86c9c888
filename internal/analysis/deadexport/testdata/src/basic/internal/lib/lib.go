// Package lib is the deadexport fixture's subject: every declaration kind,
// dead and live, with the users in ../../cmd/app.
package lib

import "sort"

// --- dead: nothing outside the declaration itself mentions these ----------

func DeadFunc() {} // want "func DeadFunc has no non-test use"

// Recursion is a reference inside the referent's own declaration.
func DeadRecursive(n int) int { // want "func DeadRecursive has no non-test use"
	if n == 0 {
		return 0
	}
	return DeadRecursive(n - 1)
}

type DeadType struct{ next *DeadType } // want "type DeadType has no non-test use"

// A type's own methods do not keep it alive, and with the type dead the
// interface rule does not save the method either.
func (d *DeadType) String() string { return d.next.String() } // want "method String has no non-test use"

const DeadConst = 1 // want "const DeadConst has no non-test use"

var DeadVar = 2 // want "var DeadVar has no non-test use"

// OnlyTested is called from lib_test.go alone: tests are not users.
func OnlyTested() {} // want "func OnlyTested has no non-test use"

// An unexported package-level func with no caller is reported too.
func deadHelper() {} // want "func deadHelper has no non-test use"

// DeadCaller is dead, but until it is deleted it keeps liveHelperOfDead
// alive: the check is not transitive.
func DeadCaller() { liveHelperOfDead() } // want "func DeadCaller has no non-test use"

func liveHelperOfDead() {}

// --- live -------------------------------------------------------------------

// UsedElsewhere is called from cmd/app.
func UsedElsewhere() int { return usedHelper() + UsedConst + UsedVar }

func usedHelper() int { return 0 }

const UsedConst = 3

var UsedVar = 4

// Widget is live (cmd/app builds one); Dead is a method nobody calls, Used
// one that cmd/app calls, unexported methods are never subjects.
type Widget struct{ N int }

func (w Widget) Used() int { return w.N }

func (w Widget) Dead() int { return w.N } // want "method Dead has no non-test use"

func (w Widget) unexportedMethod() {}

// Shape is declared here and Area called through it in cmd/app: Square.Area
// is live by name, because Square is live and a loaded interface declares
// Area. Perimeter is declared by no interface.
type Shape interface{ Area() int }

type Square struct{ Side int }

func (s Square) Area() int { return s.Side * s.Side }

func (s Square) Perimeter() int { return 4 * s.Side } // want "method Perimeter has no non-test use"

// The well-known standard-library interfaces: a live type's String, Error,
// Len/Less/Swap … are uses the identifier scan cannot see.
type Code int

func (c Code) String() string { return "code" }

func (c Code) Error() string { return "code" }

type ByN []Widget

func (b ByN) Len() int           { return len(b) }
func (b ByN) Less(i, j int) bool { return b[i].N < b[j].N }
func (b ByN) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// SortWidgets is what keeps ByN live.
func SortWidgets(ws []Widget) { sort.Sort(ByN(ws)) }

// Read is not in the standard-library set and no loaded interface declares
// it: implementing io.Reader alone does not make a method live.
func (c Code) Read(p []byte) (int, error) { return 0, nil } // want "method Read has no non-test use"

// Box is generic: cmd/app's use of Box[int] and of its Get is a use of the
// generic declarations.
type Box[T any] struct{ v T }

func NewBox[T any](v T) *Box[T] { return &Box[T]{v: v} }

func (b *Box[T]) Get() T { return b.v }

func (b *Box[T]) Set(v T) { b.v = v } // want "method Set has no non-test use"

// Oracle is dead but deliberately kept.
//
//wbcheck:ignore deadexport -- oracle: the reference lib_test.go compares against
func Oracle() {}

// One directive above a block covers every name in it.
//
//wbcheck:ignore deadexport -- format constants: an on-disk layout
const (
	FmtA = iota
	FmtB
	FmtC
)
