//go:build race

package threshsig

// raceBuild reports a race build, whose sync.Pool drops entries at random:
// allocation counts are not deterministic there.
const raceBuild = true
