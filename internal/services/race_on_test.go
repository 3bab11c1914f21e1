//go:build race

package services

// raceEnabled gates heap-bytes assertions: under the race detector
// sync.Pool drops a share of Puts at random, so pooled codec state is
// rebuilt on some calls.
const raceEnabled = true
