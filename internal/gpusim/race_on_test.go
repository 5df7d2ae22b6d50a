//go:build race

package gpusim

// raceEnabled reports that this binary was built with -race. The race
// runtime randomly drops sync.Pool puts, so the pooled schedule scratch
// allocates under it by design; the alloc-count guards only run without
// it.
const raceEnabled = true
