//go:build race

package phy

// raceEnabled reports a -race build, under which sync.Pool drops a share
// of its items on purpose, so pooled allocation counts are not stable.
const raceEnabled = true
