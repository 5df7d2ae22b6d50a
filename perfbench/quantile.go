package main

// Percentiles are nearest-rank over sorted samples and are given in
// basis points (9900 = p99) so the rank arithmetic stays exact.

// rank returns the 1-based nearest rank of percentile bp among n
// samples.
func rank(bp, n int) int {
	return max((bp*n+9999)/10000, 1)
}

// percentile returns the bp-th percentile of sorted (non-empty).
func percentile(sorted []float64, bp int) float64 {
	return sorted[rank(bp, len(sorted))-1]
}

func median(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return percentile(sorted, 5000)
}

// tailLadder lists the tail percentiles tried, highest first.
var tailLadder = []int{9999, 9990, 9900, 9800, 9500, 9000, 7500, 5000}

// tail is the highest percentile of a latency sample that still has a
// stated number of samples beyond it.
type tail struct {
	BP     int     // percentile, basis points
	Value  float64 // the sample at that rank
	Beyond int     // samples ranked after it
	N      int     // sample count
}

// tailOf returns the highest ladder percentile with at least minBeyond
// samples beyond it; ok is false when even the median has fewer.
func tailOf(sorted []float64, minBeyond int) (tail, bool) {
	n := len(sorted)
	for _, bp := range tailLadder {
		k := rank(bp, n)
		if n > 0 && n-k >= minBeyond {
			return tail{BP: bp, Value: sorted[k-1], Beyond: n - k, N: n}, true
		}
	}
	return tail{N: n}, false
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
