// Package gen sits under a testdata element below internal/: never a
// subject, whatever it leaves unused.
package gen

func Unused() {}
