package meter

import (
	"math"
	"math/rand"
	"testing"
)

// oracleDraws is how many draws each seed is compared over: past the
// register's tap (273), its feed start (334) and its length (607), so
// every word the closed-form seeding writes is read at least once.
const oracleDraws = 700

// assertSameStream draws from got and want in lockstep, interleaving
// every rand.Rand method the meter relies on (Float64, NormFloat64) with
// the raw Uint64/Int63 streams, and fails on the first differing bit.
func assertSameStream(t testing.TB, seed int64, got, want *rand.Rand) {
	t.Helper()
	for i := 0; i < oracleDraws; i++ {
		var g, w uint64
		switch i % 4 {
		case 0:
			g, w = got.Uint64(), want.Uint64()
		case 1:
			g, w = uint64(got.Int63()), uint64(want.Int63())
		case 2:
			g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
		case 3:
			g, w = math.Float64bits(got.NormFloat64()), math.Float64bits(want.NormFloat64())
		}
		if g != w {
			t.Fatalf("seed %d: draw %d differs from math/rand: got %#x, want %#x", seed, i, g, w)
		}
	}
}

func TestSourceMatchesStdlib(t *testing.T) {
	seeds := []int64{
		0, 1, -1,
		lehmerM, -lehmerM, lehmerM - 1, lehmerM + 1, -lehmerM + 1,
		1 << 31, -(1 << 31), 2 * lehmerM,
		zeroSeed, -zeroSeed,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
	}
	// A fixed stdlib generator picks the random seeds, spread over the
	// full int64 range and the small values campaigns actually use.
	pick := rand.New(rand.NewSource(20220530))
	for i := 0; i < 3000; i++ {
		s := int64(pick.Uint64())
		if i%3 == 0 {
			s >>= 33
		}
		seeds = append(seeds, s)
	}
	for _, seed := range seeds {
		assertSameStream(t, seed, rand.New(newSource(seed)), rand.New(rand.NewSource(seed)))
	}
}

// TestSourceReseedMatchesStdlib: rand.Rand.Seed reseeds the source in
// place, which must reset the taps as well as refill the register.
func TestSourceReseedMatchesStdlib(t *testing.T) {
	got := rand.New(newSource(7))
	for i := 0; i < 1000; i++ {
		got.Uint64()
	}
	for _, seed := range []int64{7, -3, 0, math.MaxInt64} {
		got.Seed(seed)
		assertSameStream(t, seed, got, rand.New(rand.NewSource(seed)))
	}
}

func FuzzSourceMatchesStdlib(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, lehmerM, -lehmerM, 1 << 31, zeroSeed, math.MinInt64, math.MaxInt64} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		assertSameStream(t, seed, rand.New(newSource(seed)), rand.New(rand.NewSource(seed)))
	})
}

// TestNewMeterMatchesStdlibMeter: a meter built by NewMeter reports, bit
// for bit, what the same meter drawing from rand.NewSource reports —
// noise (NormFloat64) and spikes (Float64) included, across enough
// measurements to wrap the register several times.
func TestNewMeterMatchesStdlibMeter(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -99, math.MaxInt64} {
		got := NewMeter(60, seed)
		want := NewMeter(60, seed)
		want.rng = rand.New(rand.NewSource(seed))
		for _, m := range []*Meter{got, want} {
			m.SpikeProb = 0.1
			m.SampleInterval = 0.5
		}
		spikes := 0
		for i := 0; i < 12; i++ {
			run := ConstantRun{Seconds: 20 + 15*float64(i), Watts: 150 + float64(i)}
			g, err := got.MeasureRun(run)
			if err != nil {
				t.Fatal(err)
			}
			w, err := want.MeasureRun(run)
			if err != nil {
				t.Fatal(err)
			}
			if g.Spikes != w.Spikes || g.Samples != w.Samples ||
				math.Float64bits(g.TotalEnergyJ) != math.Float64bits(w.TotalEnergyJ) ||
				math.Float64bits(g.DynamicEnergyJ) != math.Float64bits(w.DynamicEnergyJ) {
				t.Fatalf("seed %d, measurement %d: NewMeter reports %+v, the math/rand meter %+v", seed, i, *g, *w)
			}
			spikes += g.Spikes
		}
		if spikes == 0 {
			t.Fatalf("seed %d: no spikes drawn, so the spike path went unexercised", seed)
		}
	}
}

// BenchmarkNewMeter is the per-point meter cost of a campaign: a fresh
// meter, then three measurements of a ~70-sample run.
func BenchmarkNewMeter(b *testing.B) {
	run := ConstantRun{Seconds: 69, Watts: 180}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := NewMeter(60, int64(i))
		for j := 0; j < 3; j++ {
			if _, err := m.MeasureRun(run); err != nil {
				b.Fatal(err)
			}
		}
	}
}
