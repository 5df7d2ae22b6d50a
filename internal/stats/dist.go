// Package stats implements the statistical machinery the paper's
// experimental methodology relies on: sample summaries, Student's
// t-distribution confidence intervals, the Pearson chi-squared
// goodness-of-fit test used to validate normality assumptions, ordinary
// least squares regression, and the "repeat until the sample mean lies in
// the 95% confidence interval at 2.5% precision" measurement loop.
//
// All distribution functions are implemented from scratch on top of the
// standard library's math package (log-gamma, erf); quantiles are obtained
// by bisection on the corresponding CDF, which is robust and more than
// accurate enough for measurement-driving purposes.
package stats

import (
	"errors"
	"math"
	"sync"
)

// maxIter bounds the series/continued-fraction iterations in the
// regularized incomplete gamma and beta functions.
const maxIter = 500

// epsRel is the relative tolerance for the special-function expansions.
const epsRel = 1e-14

// GammaP computes the regularized lower incomplete gamma function
// P(a, x) = γ(a, x) / Γ(a) for a > 0, x >= 0.
func GammaP(a, x float64) (float64, error) {
	if a <= 0 || x < 0 || math.IsNaN(a) || math.IsNaN(x) {
		return 0, errors.New("stats: GammaP requires a > 0 and x >= 0")
	}
	if x == 0 {
		return 0, nil
	}
	if x < a+1 {
		v, err := gammaPSeries(a, x)
		return v, err
	}
	q, err := gammaQContinued(a, x)
	if err != nil {
		return 0, err
	}
	return 1 - q, nil
}

// gammaPSeries evaluates P(a,x) by its power series, valid for x < a+1.
func gammaPSeries(a, x float64) (float64, error) {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < maxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*epsRel {
			return sum * math.Exp(-x+a*math.Log(x)-lg), nil
		}
	}
	return 0, errors.New("stats: incomplete gamma series did not converge")
}

// gammaQContinued evaluates Q(a,x) by a modified Lentz continued fraction,
// valid for x >= a+1.
func gammaQContinued(a, x float64) (float64, error) {
	lg, _ := math.Lgamma(a)
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= maxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < epsRel {
			return math.Exp(-x+a*math.Log(x)-lg) * h, nil
		}
	}
	return 0, errors.New("stats: incomplete gamma continued fraction did not converge")
}

// BetaInc computes the regularized incomplete beta function I_x(a, b)
// for a, b > 0 and x in [0, 1].
func BetaInc(a, b, x float64) (float64, error) {
	if a <= 0 || b <= 0 || x < 0 || x > 1 || math.IsNaN(x) {
		return 0, errors.New("stats: BetaInc requires a,b > 0 and x in [0,1]")
	}
	if x == 0 {
		return 0, nil
	}
	if x == 1 {
		return 1, nil
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		cf, err := betaCF(a, b, x)
		if err != nil {
			return 0, err
		}
		return front * cf / a, nil
	}
	cf, err := betaCF(b, a, 1-x)
	if err != nil {
		return 0, err
	}
	return 1 - front*cf/b, nil
}

// betaCF is the continued-fraction expansion used by BetaInc
// (modified Lentz's method).
func betaCF(a, b, x float64) (float64, error) {
	const tiny = 1e-300
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < epsRel {
			return h, nil
		}
	}
	return 0, errors.New("stats: incomplete beta continued fraction did not converge")
}

// NormalCDF returns the CDF of the normal distribution with the given mean
// and standard deviation evaluated at x.
func NormalCDF(x, mean, sd float64) float64 {
	if sd <= 0 {
		if x < mean {
			return 0
		}
		return 1
	}
	return 0.5 * math.Erfc(-(x-mean)/(sd*math.Sqrt2))
}

// StudentTCDF returns the CDF of Student's t-distribution with nu degrees
// of freedom evaluated at t.
func StudentTCDF(t, nu float64) (float64, error) {
	if nu <= 0 {
		return 0, errors.New("stats: StudentTCDF requires nu > 0")
	}
	x := nu / (nu + t*t)
	ib, err := BetaInc(nu/2, 0.5, x)
	if err != nil {
		return 0, err
	}
	if t >= 0 {
		return 1 - ib/2, nil
	}
	return ib / 2, nil
}

// StudentTQuantile returns the two-sided critical value t* such that a
// fraction `confidence` of the t-distribution with nu degrees of freedom
// lies within (-t*, +t*). It is the value the paper's measurement loop
// multiplies the standard error by.
//
// The measurement loop asks for the same few (confidence, df) pairs on
// every iteration of every point, so results are memoised. The memo is
// filled by the bisection itself, so a cached value is bit-identical to
// a fresh one; it stops growing at tQuantileCacheCap entries and later
// pairs are computed uncached.
func StudentTQuantile(confidence float64, nu float64) (float64, error) {
	key := tQuantileKey{confidence, nu}
	tQuantileMu.Lock()
	q, ok := tQuantileCache[key]
	tQuantileMu.Unlock()
	if ok {
		return q, nil
	}
	q, err := studentTQuantile(confidence, nu)
	if err != nil {
		return 0, err
	}
	tQuantileMu.Lock()
	if len(tQuantileCache) < tQuantileCacheCap {
		tQuantileCache[key] = q
	}
	tQuantileMu.Unlock()
	return q, nil
}

// tQuantileCacheCap bounds the StudentTQuantile memo. The measurement
// loop needs one entry per run count at its confidence level; library
// callers passing arbitrary levels cannot grow it past this.
const tQuantileCacheCap = 4096

type tQuantileKey struct{ confidence, nu float64 }

var (
	tQuantileMu    sync.Mutex
	tQuantileCache = map[tQuantileKey]float64{}
)

// studentTQuantile is StudentTQuantile's uncached bisection.
func studentTQuantile(confidence float64, nu float64) (float64, error) {
	if confidence <= 0 || confidence >= 1 {
		return 0, errors.New("stats: confidence must be in (0,1)")
	}
	if nu <= 0 {
		return 0, errors.New("stats: StudentTQuantile requires nu > 0")
	}
	// Find t with CDF(t) = 0.5 + confidence/2 by bisection.
	target := 0.5 + confidence/2
	lo, hi := 0.0, 1.0
	for {
		cdf, err := StudentTCDF(hi, nu)
		if err != nil {
			return 0, err
		}
		if cdf >= target || hi > 1e9 {
			break
		}
		hi *= 2
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		cdf, err := StudentTCDF(mid, nu)
		if err != nil {
			return 0, err
		}
		if cdf < target {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12*(1+hi) {
			break
		}
	}
	return (lo + hi) / 2, nil
}

// ChiSquaredCDF returns the CDF of the chi-squared distribution with k
// degrees of freedom evaluated at x.
func ChiSquaredCDF(x, k float64) (float64, error) {
	if k <= 0 {
		return 0, errors.New("stats: ChiSquaredCDF requires k > 0")
	}
	if x <= 0 {
		return 0, nil
	}
	return GammaP(k/2, x/2)
}

// NormalQuantile returns the value x such that NormalCDF(x, mean, sd) = p.
func NormalQuantile(p, mean, sd float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, errors.New("stats: p must be in (0,1)")
	}
	if sd <= 0 {
		return 0, errors.New("stats: NormalQuantile requires sd > 0")
	}
	lo, hi := mean-20*sd, mean+20*sd
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if NormalCDF(mid, mean, sd) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}
