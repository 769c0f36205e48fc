package la

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// expClass is one family of arguments Exp and ExpInto are checked over.
type expClass struct {
	name string
	gen  func() float64
}

// expClasses are the LCM's kernel arguments, the arguments whose results are
// subnormal, both sides of overflow and underflow, arguments that vanish
// against 1, and raw bit patterns.
func expClasses(rng *rand.Rand) []expClass {
	return []expClass{
		{"kernel [-50,0]", func() float64 { return -50 * rng.Float64() }},
		{"subnormal results [-745,0]", func() float64 { return -745 * rng.Float64() }},
		{"overflow and underflow ±750", func() float64 { return 1500*rng.Float64() - 750 }},
		{"tiny -10^-k", func() float64 { return -math.Pow(10, -float64(rng.Intn(330))) * rng.Float64() }},
		{"raw bits", func() float64 { return math.Float64frombits(rng.Uint64()) }},
	}
}

// expSpecials are the special values and the edges of Exp's branches.
var expSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	709, math.Nextafter(709, 710), 709.782712893384, math.Nextafter(709.782712893384, 710), 710,
	-708, math.Nextafter(-708, -709), -708.3964185322641, -709, -745.1332191019411, -745.1332191019412, -746,
	5e-324, -5e-324, 1e-320, 1, -1, 1e300, -1e300,
}

// mathExpIsFused reports whether math.Exp in this process runs the fused
// body of exp_amd64.s, the one Exp transcribes, judged on arguments where
// the fused and the unfused body round differently. It is the one probe of
// math.Exp's body in the tree, and only tests ask it.
func mathExpIsFused() bool {
	for _, x := range []float64{-0.1875, -1.6875, -2.375, -3.0625, -3.75, -5.375, -7.1875, -17} {
		if math.Float64bits(math.Exp(x)) != math.Float64bits(Exp(x)) {
			return false
		}
	}
	return true
}

// powArgs maps one class argument onto Pow's domain (x ≥ 0 finite,
// 0 ≤ y < 2^63): exponents its callers use, fractions, and fractions plus an
// integer part.
func powArgs(rng *rand.Rand, v float64) (x, y float64) {
	x = math.Abs(v)
	if x > math.MaxFloat64 || math.IsNaN(x) {
		x = rng.Float64()
	}
	switch rng.Intn(4) {
	case 0:
		y = []float64{0, 1.0 / 16, 1.0 / 21, 0.5, 1, 2, 2.5, 5}[rng.Intn(8)]
	case 1:
		y = float64(rng.Intn(8)) + rng.Float64()
	default:
		y = rng.Float64()
	}
	return x, y
}

// TestExpErfcPowAreMath pins Exp, Erfc and Pow bit for bit to math.Exp,
// math.Erfc and math.Pow wherever math.Exp runs the fused body, over
// expClasses and expSpecials; Erfc also sees every class argument scaled
// by ±1/8, which reaches each of its branches. A toolchain whose math no
// longer is the code these transcribe fails here.
func TestExpErfcPowAreMath(t *testing.T) {
	if !mathExpIsFused() {
		t.Skip("math.Exp does not run exp_amd64.s's fused body here")
	}
	rng := rand.New(rand.NewSource(34))
	check := func(what string, got, want float64, args ...float64) {
		t.Helper()
		if !sameFloat(got, want) {
			t.Fatalf("%s%v = %#x, math %#x", what, args, math.Float64bits(got), math.Float64bits(want))
		}
	}
	each := func(x float64) {
		check("Exp", Exp(x), math.Exp(x), x)
		for _, e := range []float64{x, x / 8, -x / 8} {
			check("Erfc", Erfc(e), math.Erfc(e), e)
		}
		px, py := powArgs(rng, x)
		check("Pow", Pow(px, py), math.Pow(px, py), px, py)
	}
	perClass := 1 << 18
	if testing.Short() {
		perClass = 1 << 12
	}
	for _, c := range expClasses(rng) {
		for i := 0; i < perClass; i++ {
			each(c.gen())
		}
	}
	for _, s := range expSpecials {
		each(s)
		for _, y := range []float64{0, 0.25, 0.5, 0.75, 1, 1.5, 3, 1e18} {
			if !math.Signbit(s) && s <= math.MaxFloat64 {
				check("Pow", Pow(s, y), math.Pow(s, y), s, y)
			}
		}
	}
	for _, arg := range [][2]float64{{-1, 0.5}, {math.Copysign(0, -1), 0.5}, {math.Inf(1), 0.5}, {2, 1 << 63}, {2, -0.5}, {math.NaN(), 0.5}, {2, math.NaN()}} {
		if got := Pow(arg[0], arg[1]); !math.IsNaN(got) {
			t.Errorf("Pow%v = %v outside its domain, want NaN", arg, got)
		}
	}
}

// TestExpErfcPowGolden folds the bits of each function over seeded
// arguments into one hash, recorded once: Exp, Erfc and Pow return the same
// bits with or without FMA hardware (GODEBUG=cpu.fma=off runs math.FMA in
// software), under the purego tag, and on every amd64. Pow also goes
// through math.Log, whose amd64 body has no such fork.
func TestExpErfcPowGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	classes := expClasses(rng)
	hash := func(f func(i int) float64) uint64 {
		h := fnv.New64a()
		var b [8]byte
		for i := 0; i < 1<<14; i++ {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(f(i)))
			h.Write(b[:])
		}
		return h.Sum64()
	}
	arg := func(i int) float64 { return classes[i%len(classes)].gen() }
	for _, c := range []struct {
		name string
		f    func(i int) float64
		want uint64
	}{
		{"Exp", func(i int) float64 { return Exp(arg(i)) }, 0x9146077cb526f2f6},
		{"Erfc", func(i int) float64 { return Erfc(arg(i) / 8) }, 0x6b3b77a0295c7273},
		{"Pow", func(i int) float64 { return Pow(powArgs(rng, arg(i))) }, 0xc9d706142e05a89e},
	} {
		if got := hash(c.f); got != c.want {
			t.Errorf("%s: fold hash %#x, recorded %#x", c.name, got, c.want)
		}
	}
}

// BenchmarkExp times Exp against math.Exp over the LCM's kernel arguments.
// math.Exp runs exp_amd64.s; Exp's FMAs are instructions on a CPU with FMA
// and software calls under GODEBUG=cpu.fma=off.
func BenchmarkExp(b *testing.B) {
	rng := rand.New(rand.NewSource(36))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = -50 * rng.Float64()
	}
	for _, c := range []struct {
		name string
		f    func(float64) float64
	}{{"la", Exp}, {"math", math.Exp}} {
		b.Run(c.name, func(b *testing.B) {
			s := 0.0
			for i := 0; i < b.N; i++ {
				s += c.f(xs[i&1023])
			}
			sinkExp = s
		})
	}
}

var sinkExp float64
