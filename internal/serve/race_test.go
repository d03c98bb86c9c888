//go:build race

package serve

// The race detector drops a quarter of sync.Pool Puts and changes what
// allocates, so the pool-return allocation gates skip under it.
func init() { raceEnabled = true }
