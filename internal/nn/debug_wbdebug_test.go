//go:build wbdebug

package nn

func init() { nonFiniteProducts = false }
