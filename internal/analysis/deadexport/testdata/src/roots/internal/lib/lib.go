// Package lib is used from two module roots: this one (nobody) and the
// nested module in ../../second.
package lib

// OnlySecond has no user in this module; the second root's main calls it.
func OnlySecond() {}

type Handle struct{}

// Close is called on a lib.Handle by the second root alone.
func (Handle) Close() {}

func Nobody() {} // want "func Nobody has no non-test use"
