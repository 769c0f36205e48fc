package la

import "math"

// The transcendental functions whose results reach a history. Go's math.Exp
// has two amd64 bodies in exp_amd64.s, one with fused multiply-adds and one
// without, which round differently; the CPU and GODEBUG pick one at start-up,
// and math.Pow, Erf, Erfc, Sinh, Cosh, Tanh and Gamma inherit the choice. Exp
// is the fused body written out in Go with every fused step an explicit
// math.FMA, which is correctly rounded on every CPU (in hardware or in
// software), so it returns the same bits everywhere. Erfc and Pow are
// math's own Go bodies with Exp in place of math.Exp. gptlint's no-math-exp
// rule keeps the math versions out of the numeric packages.

// The constants of exp_amd64.s, digit for digit. expTab (lanes.go) hands the
// same values to expLanes.
const (
	expLog2e    = 1.4426950408889634073599246810018920                  // log₂ e
	expLn2U     = 0.69314718055966295651160180568695068359375           // ln 2, upper half
	expLn2L     = 0.28235290563031577122588448175013436025525412068e-12 // ln 2, lower half
	expOverflow = 7.09782712893384e+02
	expP8       = 2.4801587301587301587e-5 // 1/8!
	expP7       = 1.9841269841269841270e-4 // 1/7!
	expP6       = 1.3888888888888888889e-3 // 1/6!
	expP5       = 8.3333333333333333333e-3 // 1/5!
	expP4       = 4.1666666666666666667e-2 // 1/4!
	expP3       = 1.6666666666666666667e-1 // 1/3!
)

// Exp returns e^x with the bits of math.Exp's fused amd64 body on every CPU
// and GOARCH: k = round(x·log₂e), the reduced argument x − k·ln2 in two fused
// steps, a Taylor series in (x − k·ln2)/16 by fused Horner steps, four
// squarings y ← y·(y + 2), the last fused with the +1, and a scale by 2^k.
// Every product that exp_amd64.s does not fuse is written float64(a*b), so no
// compiler fuses it either. Special cases are math.Exp's: Exp(+Inf) = +Inf,
// Exp(−Inf) = 0, Exp(NaN) = NaN.
func Exp(x float64) float64 {
	switch {
	case math.IsNaN(x):
		return x
	case math.IsInf(x, -1):
		return 0
	case x > expOverflow:
		return math.Inf(1)
	}
	fk := math.RoundToEven(float64(x * expLog2e))
	if fk < -1075 { // 2^k·y underflows whatever y is
		return 0
	}
	x = math.FMA(-fk, expLn2U, x)
	x = math.FMA(-fk, expLn2L, x)
	x = float64(x * 0.0625)
	p := math.FMA(expP8, x, expP7)
	p = math.FMA(p, x, expP6)
	p = math.FMA(p, x, expP5)
	p = math.FMA(p, x, expP4)
	p = math.FMA(p, x, expP3)
	p = math.FMA(p, x, 0.5)
	p = math.FMA(p, x, 1)
	y := float64(x * p)
	y = float64(y * (y + 2))
	y = float64(y * (y + 2))
	y = float64(y * (y + 2))
	y = math.FMA(y, y+2, 1)
	// · 2^k, in two steps when 2^k is below the normal range.
	b := int(fk) + 0x3FF
	switch {
	case b >= 0x7FF:
		return math.Inf(1)
	case b <= 0:
		y = float64(y * math.Float64frombits(uint64(b+0x3FE)<<52))
		b = 1
	}
	return float64(y * math.Float64frombits(uint64(b)<<52))
}

// Pow returns x^y for x in [+0, MaxFloat64] and y in [0, 2^63), with the
// bits math.Pow's Go body (pow.go) has on that domain once Exp stands in for
// math.Exp: √x at y = ½, and otherwise x^yf·x^yi with yf ∈ (−½, ½] the
// fraction of y, x^yf = e^(yf·ln x) and x^yi by squarings of x's Frexp
// fraction. Outside the domain (−0 included) it returns NaN.
func Pow(x, y float64) float64 { return NewPowBase(x).Pow(y) }

// PowBase is what Pow(x, y) computes of x alone — ln x and x's Frexp — for
// a caller that raises one base to many exponents (space's log axes, one
// per parameter, for every search candidate).
type PowBase struct {
	x, ln, frac float64
	exp         int
}

// NewPowBase returns x's share of Pow: math.Log(x) and math.Frexp(x), the
// same functions on the same input as Pow, so the same bits.
func NewPowBase(x float64) PowBase {
	frac, exp := math.Frexp(x)
	return PowBase{x: x, ln: math.Log(x), frac: frac, exp: exp}
}

// Pow returns Pow(x, y) for b = NewPowBase(x): the one body of Pow.
func (b PowBase) Pow(y float64) float64 {
	x := b.x
	switch {
	case math.Signbit(x) || !(x <= math.MaxFloat64 && y >= 0 && y < 1<<63):
		return math.NaN()
	case y <= 0: // y = 0
		return 1
	case x <= 0: // x = +0
		return 0
	case !(y < 0.5 || y > 0.5): // y = ½
		return math.Sqrt(x)
	}
	yi, yf := math.Modf(y)
	a1, ae := 1.0, 0
	if yf > 0 {
		if yf > 0.5 {
			yf--
			yi++
		}
		a1 = Exp(float64(yf * b.ln))
	}
	x1, xe := b.frac, b.exp
	for i := int64(yi); i != 0; i >>= 1 {
		if xe < -1<<12 || 1<<12 < xe { // the result under- or overflows
			ae += xe
			break
		}
		if i&1 == 1 {
			a1 = float64(a1 * x1)
			ae += xe
		}
		x1 = float64(x1 * x1)
		xe <<= 1
		if x1 < .5 {
			x1 += x1
			xe--
		}
	}
	return math.Ldexp(a1, ae)
}

// Erfc returns the complementary error function of x: math.Erfc's Go body
// (erf.go, after FreeBSD's s_erf.c) with Exp for math.Exp. Special cases:
// Erfc(+Inf) = 0, Erfc(−Inf) = 2, Erfc(NaN) = NaN.
func Erfc(x float64) float64 {
	const tiny = 1.0 / (1 << 56) // 2**-56
	switch {
	case math.IsNaN(x):
		return math.NaN()
	case math.IsInf(x, 1):
		return 0
	case math.IsInf(x, -1):
		return 2
	}
	sign := false
	if x < 0 {
		x = -x
		sign = true
	}
	if x < 0.84375 { // |x| < 0.84375
		var temp float64
		if x < tiny { // |x| < 2**-56
			temp = x
		} else {
			z := x * x
			r := erfPP0 + z*(erfPP1+z*(erfPP2+z*(erfPP3+z*erfPP4)))
			s := 1 + z*(erfQQ1+z*(erfQQ2+z*(erfQQ3+z*(erfQQ4+z*erfQQ5))))
			y := r / s
			if x < 0.25 { // |x| < 1/4
				temp = x + x*y
			} else {
				temp = 0.5 + (x*y + (x - 0.5))
			}
		}
		if sign {
			return 1 + temp
		}
		return 1 - temp
	}
	if x < 1.25 { // 0.84375 <= |x| < 1.25
		s := x - 1
		P := erfPA0 + s*(erfPA1+s*(erfPA2+s*(erfPA3+s*(erfPA4+s*(erfPA5+s*erfPA6)))))
		Q := 1 + s*(erfQA1+s*(erfQA2+s*(erfQA3+s*(erfQA4+s*(erfQA5+s*erfQA6)))))
		if sign {
			return 1 + erfErx + P/Q
		}
		return 1 - erfErx - P/Q
	}
	if x < 28 { // |x| < 28
		s := 1 / (x * x)
		var R, S float64
		if x < 1/0.35 { // |x| < 1 / 0.35 ~ 2.857143
			R = erfRA0 + s*(erfRA1+s*(erfRA2+s*(erfRA3+s*(erfRA4+s*(erfRA5+s*(erfRA6+s*erfRA7))))))
			S = 1 + s*(erfSA1+s*(erfSA2+s*(erfSA3+s*(erfSA4+s*(erfSA5+s*(erfSA6+s*(erfSA7+s*erfSA8)))))))
		} else { // |x| >= 1 / 0.35 ~ 2.857143
			if sign && x > 6 {
				return 2 // x < -6
			}
			R = erfRB0 + s*(erfRB1+s*(erfRB2+s*(erfRB3+s*(erfRB4+s*(erfRB5+s*erfRB6)))))
			S = 1 + s*(erfSB1+s*(erfSB2+s*(erfSB3+s*(erfSB4+s*(erfSB5+s*(erfSB6+s*erfSB7))))))
		}
		z := math.Float64frombits(math.Float64bits(x) & 0xffffffff00000000) // pseudo-single (20-bit) precision x
		r := Exp(-z*z-0.5625) * Exp((z-x)*(z+x)+R/S)
		if sign {
			return 2 - r/x
		}
		return r / x
	}
	if sign {
		return 2
	}
	return 0
}

// erf.go's coefficients, digit for digit.
const (
	erfErx = 8.45062911510467529297e-01 // 0x3FEB0AC160000000
	// Coefficients for approximation to erf in [0, 0.84375]
	erfPP0 = 1.28379167095512558561e-01  // 0x3FC06EBA8214DB68
	erfPP1 = -3.25042107247001499370e-01 // 0xBFD4CD7D691CB913
	erfPP2 = -2.84817495755985104766e-02 // 0xBF9D2A51DBD7194F
	erfPP3 = -5.77027029648944159157e-03 // 0xBF77A291236668E4
	erfPP4 = -2.37630166566501626084e-05 // 0xBEF8EAD6120016AC
	erfQQ1 = 3.97917223959155352819e-01  // 0x3FD97779CDDADC09
	erfQQ2 = 6.50222499887672944485e-02  // 0x3FB0A54C5536CEBA
	erfQQ3 = 5.08130628187576562776e-03  // 0x3F74D022C4D36B0F
	erfQQ4 = 1.32494738004321644526e-04  // 0x3F215DC9221C1A10
	erfQQ5 = -3.96022827877536812320e-06 // 0xBED09C4342A26120
	// Coefficients for approximation to erf in [0.84375, 1.25]
	erfPA0 = -2.36211856075265944077e-03 // 0xBF6359B8BEF77538
	erfPA1 = 4.14856118683748331666e-01  // 0x3FDA8D00AD92B34D
	erfPA2 = -3.72207876035701323847e-01 // 0xBFD7D240FBB8C3F1
	erfPA3 = 3.18346619901161753674e-01  // 0x3FD45FCA805120E4
	erfPA4 = -1.10894694282396677476e-01 // 0xBFBC63983D3E28EC
	erfPA5 = 3.54783043256182359371e-02  // 0x3FA22A36599795EB
	erfPA6 = -2.16637559486879084300e-03 // 0xBF61BF380A96073F
	erfQA1 = 1.06420880400844228286e-01  // 0x3FBB3E6618EEE323
	erfQA2 = 5.40397917702171048937e-01  // 0x3FE14AF092EB6F33
	erfQA3 = 7.18286544141962662868e-02  // 0x3FB2635CD99FE9A7
	erfQA4 = 1.26171219808761642112e-01  // 0x3FC02660E763351F
	erfQA5 = 1.36370839120290507362e-02  // 0x3F8BEDC26B51DD1C
	erfQA6 = 1.19844998467991074170e-02  // 0x3F888B545735151D
	// Coefficients for approximation to erfc in [1.25, 1/0.35]
	erfRA0 = -9.86494403484714822705e-03 // 0xBF843412600D6435
	erfRA1 = -6.93858572707181764372e-01 // 0xBFE63416E4BA7360
	erfRA2 = -1.05586262253232909814e+01 // 0xC0251E0441B0E726
	erfRA3 = -6.23753324503260060396e+01 // 0xC04F300AE4CBA38D
	erfRA4 = -1.62396669462573470355e+02 // 0xC0644CB184282266
	erfRA5 = -1.84605092906711035994e+02 // 0xC067135CEBCCABB2
	erfRA6 = -8.12874355063065934246e+01 // 0xC054526557E4D2F2
	erfRA7 = -9.81432934416914548592e+00 // 0xC023A0EFC69AC25C
	erfSA1 = 1.96512716674392571292e+01  // 0x4033A6B9BD707687
	erfSA2 = 1.37657754143519042600e+02  // 0x4061350C526AE721
	erfSA3 = 4.34565877475229228821e+02  // 0x407B290DD58A1A71
	erfSA4 = 6.45387271733267880336e+02  // 0x40842B1921EC2868
	erfSA5 = 4.29008140027567833386e+02  // 0x407AD02157700314
	erfSA6 = 1.08635005541779435134e+02  // 0x405B28A3EE48AE2C
	erfSA7 = 6.57024977031928170135e+00  // 0x401A47EF8E484A93
	erfSA8 = -6.04244152148580987438e-02 // 0xBFAEEFF2EE749A62
	// Coefficients for approximation to erfc in [1/.35, 28]
	erfRB0 = -9.86494292470009928597e-03 // 0xBF84341239E86F4A
	erfRB1 = -7.99283237680523006574e-01 // 0xBFE993BA70C285DE
	erfRB2 = -1.77579549177547519889e+01 // 0xC031C209555F995A
	erfRB3 = -1.60636384855821916062e+02 // 0xC064145D43C5ED98
	erfRB4 = -6.37566443368389627722e+02 // 0xC083EC881375F228
	erfRB5 = -1.02509513161107724954e+03 // 0xC09004616A2E5992
	erfRB6 = -4.83519191608651397019e+02 // 0xC07E384E9BDC383F
	erfSB1 = 3.03380607434824582924e+01  // 0x403E568B261D5190
	erfSB2 = 3.25792512996573918826e+02  // 0x40745CAE221B9F0A
	erfSB3 = 1.53672958608443695994e+03  // 0x409802EB189D5118
	erfSB4 = 3.19985821950859553908e+03  // 0x40A8FFB7688C246A
	erfSB5 = 2.55305040643316442583e+03  // 0x40A3F219CEDF3BE6
	erfSB6 = 4.74528541206955367215e+02  // 0x407DA874E79FE763
	erfSB7 = -2.24409524465858183362e+01 // 0xC03670E242712D62
)
