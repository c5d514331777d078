//go:build race

package gls

const raceEnabled = true
