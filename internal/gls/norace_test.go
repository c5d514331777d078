//go:build !race

package gls

const raceEnabled = false
