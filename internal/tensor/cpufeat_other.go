//go:build !amd64

package tensor

// Non-amd64 targets have no lane kernels: every matmul and activation runs
// its pure-Go body. A variable like its amd64 twin so the both-modes tests
// compile (and skip) here.
var useLaneKernels = false
