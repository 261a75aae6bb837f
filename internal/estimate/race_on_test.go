//go:build race

package estimate

// raceEnabled reports whether the race detector is compiled in. Under
// -race, sync.Pool deliberately bypasses its cache on a fraction of Gets
// to widen interleaving coverage, so AllocsPerRun gates on pooled scratch
// are skipped.
const raceEnabled = true
