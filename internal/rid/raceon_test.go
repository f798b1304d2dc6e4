//go:build race

package rid

func init() { raceEnabled = true }
