package machine

import (
	"math"
	"testing"
)

func TestCoriParameters(t *testing.T) {
	m := CoriHaswell()
	if m.CoresPerNode != 32 || m.FlopsPerCore <= 0 || m.Latency <= 0 {
		t.Fatalf("bad machine: %+v", m)
	}
}

func TestTimeComm(t *testing.T) {
	m := Machine{Latency: 1e-6, Bandwidth: 1e9}
	got := m.TimeComm(1000, 1e9)
	want := 1000*1e-6 + 1.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("TimeComm = %v, want %v", got, want)
	}
}

func TestNoiseDeterministicPerAttempt(t *testing.T) {
	n1 := NewNoise(0.1, 7)
	n2 := NewNoise(0.1, 7)
	var seq1, seq2 []float64
	for i := 0; i < 5; i++ {
		seq1 = append(seq1, n1.Mul("cfg-a"))
		seq2 = append(seq2, n2.Mul("cfg-a"))
	}
	for i := range seq1 {
		if seq1[i] != seq2[i] {
			t.Fatalf("same seed/key diverged at %d", i)
		}
	}
	// Attempts must differ from each other (noise is real).
	same := true
	for i := 1; i < len(seq1); i++ {
		if seq1[i] != seq1[0] {
			same = false
		}
	}
	if same {
		t.Fatalf("all attempts identical: %v", seq1)
	}
}

func TestNoiseKeyAndSeedDecorrelate(t *testing.T) {
	n := NewNoise(0.1, 7)
	a := n.MulAt("cfg-a", 0)
	b := n.MulAt("cfg-b", 0)
	if a == b {
		t.Fatalf("different keys gave identical noise")
	}
	m := NewNoise(0.1, 8)
	if n.MulAt("cfg-a", 0) == m.MulAt("cfg-a", 0) {
		t.Fatalf("different seeds gave identical noise")
	}
}

func TestNoiseStatistics(t *testing.T) {
	n := NewNoise(0.05, 1)
	sum, sumSq := 0.0, 0.0
	const trials = 2000
	for i := 0; i < trials; i++ {
		v := math.Log(n.Mul("stats"))
		sum += v
		sumSq += v * v
	}
	mean := sum / trials
	sd := math.Sqrt(sumSq/trials - mean*mean)
	if math.Abs(mean) > 0.01 {
		t.Fatalf("log-noise mean %v, want ≈ 0", mean)
	}
	if math.Abs(sd-0.05) > 0.01 {
		t.Fatalf("log-noise sd %v, want ≈ 0.05", sd)
	}
}

func TestNoiseNilAndZeroSigma(t *testing.T) {
	var n *Noise
	if n.Mul("x") != 1 {
		t.Fatalf("nil noise must be identity")
	}
	z := NewNoise(0, 1)
	if z.Mul("x") != 1 {
		t.Fatalf("zero sigma must be identity")
	}
}
