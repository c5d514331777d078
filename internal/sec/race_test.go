//go:build race

package sec

const raceEnabled = true
