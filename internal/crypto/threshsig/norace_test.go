//go:build !race

package threshsig

const raceBuild = false
