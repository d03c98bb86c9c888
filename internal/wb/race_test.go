//go:build race

package wb

// The race detector drops a quarter of sync.Pool Puts and changes what
// allocates, so the pool-return allocation gate skips under it.
func init() { raceEnabled = true }
