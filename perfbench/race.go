//go:build race

package main

// A -race build marks itself, so that main refuses to measure it.
func init() { raceEnabled = true }
