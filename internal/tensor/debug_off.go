//go:build !wbdebug

package tensor

// debugFinite is a no-op in release builds; the empty body inlines away, so
// the kernels in into.go pay nothing for their guard calls. Build with
// `-tags wbdebug` to trap the first non-finite value a kernel produces.
func debugFinite[T Float](op string, dst *MatrixOf[T]) {}

// debugPoison is a no-op in release builds: uninitialised storage stays
// uninitialised.
func debugPoison[T Float](data []T) {}
