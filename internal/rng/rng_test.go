package rng

import (
	"testing"
)

func firstDraws(seed int64, labels ...uint64) [4]uint64 {
	r := New(seed, labels...)
	return [4]uint64{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()}
}

// TestSameLabelsSameDraws: a stream is a function of its seed and labels.
func TestSameLabelsSameDraws(t *testing.T) {
	a, b := New(42, Search, 3, 17, 2), New(42, Search, 3, 17, 2)
	for k := 0; k < 1000; k++ {
		if x, y := a.Float64(), b.Float64(); x != y {
			t.Fatalf("draw %d: %v vs %v", k, x, y)
		}
	}
	if firstDraws(42, Search, 3, 17, 2) == firstDraws(43, Search, 3, 17, 2) {
		t.Error("seeds 42 and 43 share a stream")
	}
}

// TestStreamsAreDistinct walks every purpose tag × task × slot ×
// generation a tuning run can label a stream with (and the shorter label
// lists the tags that take fewer labels use) and requires that no two
// streams share their first four draws. The derivation it replaced made
// task 0's slot-0 PSO stream (Seed ^ hash2(7, ms)) and the retry stream of
// task 0, slot 7 (Seed ^ hash2(0·64+7, ms)) one stream.
func TestStreamsAreDistinct(t *testing.T) {
	const tasks, slots, gens = 8, 9, 6
	seen := make(map[[4]uint64]string)
	add := func(name string, labels ...uint64) {
		d := firstDraws(7, labels...)
		if prev, ok := seen[d]; ok {
			t.Fatalf("%s and %s share their first draws", prev, name)
		}
		seen[d] = name
	}
	for tag := Engine; tag < endTags; tag++ {
		add("tag", tag)
		for a := uint64(0); a < tasks; a++ {
			add("tag,a", tag, a)
			for b := uint64(0); b < slots; b++ {
				add("tag,a,b", tag, a, b)
				for c := uint64(0); c < gens; c++ {
					add("tag,a,b,c", tag, a, b, c)
				}
			}
		}
	}
	if firstDraws(7, Search, 0, 4, 0) == firstDraws(7, Retry, 0, 7, 4) {
		t.Error("the search stream of (task 0, slot 0) is the retry stream of (task 0, slot 7)")
	}
}

// TestSeedMixRestartsInPlace: reseeding a generator with Mix reproduces
// New's stream and allocates nothing — what rf does once per tree.
func TestSeedMixRestartsInPlace(t *testing.T) {
	r := New(0)
	for tree := uint64(0); tree < 5; tree++ {
		r.Seed(Mix(11, Tree, tree))
		want := New(11, Tree, tree)
		for k := 0; k < 50; k++ {
			if x, y := r.Int63(), want.Int63(); x != y {
				t.Fatalf("tree %d draw %d: reseeded %d, New %d", tree, k, x, y)
			}
		}
	}
	if a := testing.AllocsPerRun(100, func() { r.Seed(Mix(11, Tree, 3)) }); a != 0 {
		t.Errorf("reseeding allocates %v times, want 0", a)
	}
}

// TestDerivationIsPinned fixes the first draws of two streams, so a change
// to the mixing or to the source shows here before it moves every history.
func TestDerivationIsPinned(t *testing.T) {
	for _, c := range []struct {
		seed   int64
		labels []uint64
		want   [4]uint64
	}{
		{0, nil, [4]uint64{0x22697b0feb95c434, 0x581c9ac4cddc414a, 0x29414d92b70eedfb, 0x18f8a4ecc66f1898}},
		{2026, []uint64{Search, 1, 12, 3}, [4]uint64{0x2d7a2923bd463009, 0x557f62932550bdc3, 0x39ef3d403b599139, 0x969d6da151d67725}},
	} {
		if got := firstDraws(c.seed, c.labels...); got != c.want {
			t.Errorf("New(%d, %v) first draws %#x, want %#x", c.seed, c.labels, got, c.want)
		}
	}
	if got, want := New(2026, Search, 1, 12, 3).Float64(), 0.35529054875455435; got != want {
		t.Errorf("first Float64 %v, want %v", got, want)
	}
}

// BenchmarkNew is the cost of a fresh stream and its first draw.
func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	var s float64
	for i := 0; i < b.N; i++ {
		s += New(int64(i), Search, 1, 2, 3).Float64()
	}
	_ = s
}

// BenchmarkReseed is the cost of restarting a generator in place.
func BenchmarkReseed(b *testing.B) {
	b.ReportAllocs()
	r := New(0)
	var s float64
	for i := 0; i < b.N; i++ {
		r.Seed(Mix(int64(i), Tree, 7))
		s += r.Float64()
	}
	_ = s
}
