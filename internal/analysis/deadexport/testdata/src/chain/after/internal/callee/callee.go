// Package callee after the first run's finding was acted on: package caller
// is deleted, and the next run reports what it was keeping alive.
package callee

func Helper() {} // want "func Helper has no non-test use"
