//go:build race

package transport

// raceBuild reports a race-detector build. There one small socket write,
// made after a deployment test has run in the same process, was measured
// at up to 110 ms on a two-core machine, so a wall-clock bound on a
// single call is scaled up.
const raceBuild = true
