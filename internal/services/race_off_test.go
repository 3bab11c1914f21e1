//go:build !race

package services

const raceEnabled = false
