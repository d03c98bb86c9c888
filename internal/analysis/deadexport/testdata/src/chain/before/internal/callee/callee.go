// Package callee is half of the two-run fixture. On this run caller.Entry —
// itself dead — still mentions Helper, so Helper is silent.
package callee

func Helper() {}
