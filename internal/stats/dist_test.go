package stats

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestGammaPKnownValues(t *testing.T) {
	cases := []struct {
		a, x, want float64
	}{
		// P(1, x) = 1 - exp(-x).
		{1, 0.5, 1 - math.Exp(-0.5)},
		{1, 2, 1 - math.Exp(-2)},
		// P(0.5, x) = erf(sqrt(x)).
		{0.5, 1, math.Erf(1)},
		{0.5, 4, math.Erf(2)},
		// Large-x saturation.
		{3, 100, 1},
	}
	for _, c := range cases {
		got, err := GammaP(c.a, c.x)
		if err != nil {
			t.Fatalf("GammaP(%v,%v): %v", c.a, c.x, err)
		}
		if !almostEqual(got, c.want, 1e-10) {
			t.Errorf("GammaP(%v,%v) = %v, want %v", c.a, c.x, got, c.want)
		}
	}
}

func TestGammaPInvalidInputs(t *testing.T) {
	if _, err := GammaP(0, 1); err == nil {
		t.Error("GammaP(0,1): want error")
	}
	if _, err := GammaP(1, -1); err == nil {
		t.Error("GammaP(1,-1): want error")
	}
	if _, err := GammaP(math.NaN(), 1); err == nil {
		t.Error("GammaP(NaN,1): want error")
	}
}

func TestBetaIncKnownValues(t *testing.T) {
	// I_x(1,1) = x (uniform distribution).
	for _, x := range []float64{0, 0.25, 0.5, 0.75, 1} {
		got, err := BetaInc(1, 1, x)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, x, 1e-12) {
			t.Errorf("I_%v(1,1) = %v, want %v", x, got, x)
		}
	}
	// I_x(2,2) = 3x² - 2x³.
	for _, x := range []float64{0.1, 0.5, 0.9} {
		got, err := BetaInc(2, 2, x)
		if err != nil {
			t.Fatal(err)
		}
		want := 3*x*x - 2*x*x*x
		if !almostEqual(got, want, 1e-12) {
			t.Errorf("I_%v(2,2) = %v, want %v", x, got, want)
		}
	}
}

func TestBetaIncSymmetry(t *testing.T) {
	// I_x(a,b) = 1 - I_{1-x}(b,a).
	check := func(a, b, x float64) bool {
		a = 0.5 + math.Abs(math.Mod(a, 10))
		b = 0.5 + math.Abs(math.Mod(b, 10))
		x = math.Abs(math.Mod(x, 1))
		l, err1 := BetaInc(a, b, x)
		r, err2 := BetaInc(b, a, 1-x)
		if err1 != nil || err2 != nil {
			return false
		}
		return almostEqual(l, 1-r, 1e-9)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestStudentTCDFSymmetryAndLimits(t *testing.T) {
	for _, nu := range []float64{1, 2, 5, 30, 120} {
		c0, err := StudentTCDF(0, nu)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(c0, 0.5, 1e-12) {
			t.Errorf("CDF(0, nu=%v) = %v, want 0.5", nu, c0)
		}
		cp, _ := StudentTCDF(1.5, nu)
		cm, _ := StudentTCDF(-1.5, nu)
		if !almostEqual(cp+cm, 1, 1e-12) {
			t.Errorf("symmetry broken at nu=%v: %v + %v != 1", nu, cp, cm)
		}
	}
}

func TestStudentTQuantileKnownValues(t *testing.T) {
	// Standard two-sided critical values.
	cases := []struct {
		conf float64
		nu   float64
		want float64
	}{
		{0.95, 1, 12.706},
		{0.95, 2, 4.303},
		{0.95, 10, 2.228},
		{0.95, 30, 2.042},
		{0.99, 10, 3.169},
		{0.90, 20, 1.725},
	}
	for _, c := range cases {
		got, err := StudentTQuantile(c.conf, c.nu)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, c.want, 5e-3) {
			t.Errorf("t*(%v, nu=%v) = %v, want %v", c.conf, c.nu, got, c.want)
		}
	}
}

func TestStudentTQuantileApproachesNormal(t *testing.T) {
	got, err := StudentTQuantile(0.95, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 1.96, 1e-2) {
		t.Errorf("t*(0.95, nu=1e6) = %v, want ~1.96", got)
	}
}

func TestStudentTQuantileInvalid(t *testing.T) {
	if _, err := StudentTQuantile(1.5, 10); err == nil {
		t.Error("confidence > 1: want error")
	}
	if _, err := StudentTQuantile(0.95, 0); err == nil {
		t.Error("nu = 0: want error")
	}
}

// resetTQuantileCache empties the StudentTQuantile memo so a test sees
// a cold cache.
func resetTQuantileCache() {
	tQuantileMu.Lock()
	clear(tQuantileCache)
	tQuantileMu.Unlock()
}

func tQuantileCacheLen() int {
	tQuantileMu.Lock()
	defer tQuantileMu.Unlock()
	return len(tQuantileCache)
}

// TestStudentTQuantileMemoBitIdentical: a memoised quantile is the exact
// value the uncached bisection computes, on a cold and on a warm cache.
func TestStudentTQuantileMemoBitIdentical(t *testing.T) {
	type query struct{ conf, nu float64 }
	var queries []query
	for df := 1; df <= 1000; df++ {
		queries = append(queries, query{0.95, float64(df)})
	}
	for _, conf := range []float64{0.5, 0.9, 0.99, 0.999} {
		for df := 1; df <= 100; df++ {
			queries = append(queries, query{conf, float64(df)})
		}
	}
	resetTQuantileCache()
	for _, pass := range []string{"cold", "warm"} {
		for _, q := range queries {
			got, err := StudentTQuantile(q.conf, q.nu)
			if err != nil {
				t.Fatal(err)
			}
			want, err := studentTQuantile(q.conf, q.nu)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s cache: t*(%v, nu=%v) = %v, bisection %v", pass, q.conf, q.nu, got, want)
			}
		}
		if n := tQuantileCacheLen(); n != len(queries) {
			t.Fatalf("%s cache holds %d entries, want %d", pass, n, len(queries))
		}
	}
}

// TestStudentTQuantileMemoCapped: past the cap, lookups are computed
// without caching and still return the bisection's value.
func TestStudentTQuantileMemoCapped(t *testing.T) {
	resetTQuantileCache()
	defer resetTQuantileCache()
	tQuantileMu.Lock()
	for i := 0; i < tQuantileCacheCap; i++ {
		tQuantileCache[tQuantileKey{0.5, -float64(i + 1)}] = 0
	}
	tQuantileMu.Unlock()
	got, err := StudentTQuantile(0.95, 7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := studentTQuantile(0.95, 7)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("uncached t*(0.95, 7) = %v, bisection %v", got, want)
	}
	if n := tQuantileCacheLen(); n != tQuantileCacheCap {
		t.Errorf("cache grew to %d entries past its cap %d", n, tQuantileCacheCap)
	}
}

// TestStudentTQuantileMemoConcurrent: concurrent lookups of the same
// keys on a cold cache agree with the bisection (and are race-clean
// under -race).
func TestStudentTQuantileMemoConcurrent(t *testing.T) {
	resetTQuantileCache()
	want := make([]float64, 200)
	for i := range want {
		q, err := studentTQuantile(0.95, float64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = q
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range want {
				got, err := StudentTQuantile(0.95, float64(i+1))
				if err != nil || math.Float64bits(got) != math.Float64bits(want[i]) {
					errs <- fmt.Sprintf("t*(0.95, nu=%d) = %v (err %v), want %v", i+1, got, err, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

func TestChiSquaredCDFKnownValues(t *testing.T) {
	// chi2 with k=2 is Exp(1/2): CDF(x) = 1 - exp(-x/2).
	for _, x := range []float64{0.5, 1, 3, 10} {
		got, err := ChiSquaredCDF(x, 2)
		if err != nil {
			t.Fatal(err)
		}
		want := 1 - math.Exp(-x/2)
		if !almostEqual(got, want, 1e-10) {
			t.Errorf("ChiSquaredCDF(%v, 2) = %v, want %v", x, got, want)
		}
	}
	// The classic 95th percentile for k=3 is 7.815.
	c, err := ChiSquaredCDF(7.815, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(c, 0.95, 1e-3) {
		t.Errorf("ChiSquaredCDF(7.815, 3) = %v, want ~0.95", c)
	}
}

func TestNormalCDFAndQuantile(t *testing.T) {
	if !almostEqual(NormalCDF(0, 0, 1), 0.5, 1e-12) {
		t.Error("NormalCDF(0) != 0.5")
	}
	if !almostEqual(NormalCDF(1.959964, 0, 1), 0.975, 1e-6) {
		t.Error("NormalCDF(1.96) != 0.975")
	}
	q, err := NormalQuantile(0.975, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(q, 1.959964, 1e-4) {
		t.Errorf("NormalQuantile(0.975) = %v", q)
	}
	// Shifted/scaled.
	q, err = NormalQuantile(0.5, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(q, 10, 1e-6) {
		t.Errorf("NormalQuantile(0.5, 10, 3) = %v, want 10", q)
	}
}

func TestNormalCDFMonotoneProperty(t *testing.T) {
	check := func(a, b float64) bool {
		a = math.Mod(a, 50)
		b = math.Mod(b, 50)
		lo, hi := math.Min(a, b), math.Max(a, b)
		return NormalCDF(lo, 0, 5) <= NormalCDF(hi, 0, 5)+1e-15
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}
