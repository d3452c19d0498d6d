//go:build race

package analytic

func init() { raceEnabled = true }
