package sparse_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/apps/superlu"
	"repro/internal/sparse"
)

// TestOrderingsGolden pins every Ordering on the patterns the simulators
// factor: the eight superlu.PARSEC matrices, the 27-point 12³ grid and a
// two-component pattern (RCM and nested dissection restart per component).
// Each row is the FNV-64a hash of the permutation and Analyze's FillL and
// Flops. Recorded when the orderings still kept their sets in maps; any
// change to a permutation moves every superlu history that uses it.
func TestOrderingsGolden(t *testing.T) {
	type pat struct {
		name string
		p    *sparse.Pattern
		seed int64
	}
	var pats []pat
	for _, m := range superlu.PARSEC {
		pats = append(pats, pat{m.Name, sparse.Hamiltonian(m.N, m.AvgDeg, m.Seed), m.Seed})
	}
	pats = append(pats,
		pat{"grid12", sparse.Grid3D(12, 12, 12, 1, false), 11},
		pat{"twocomp", disjointUnion(sparse.Grid3D(6, 5, 4, 1, true), sparse.Hamiltonian(200, 12, 7)), 3},
	)
	var got strings.Builder
	for _, pt := range pats {
		for o := range sparse.OrderingNames {
			perm := sparse.Order(pt.p, sparse.Ordering(o), pt.seed)
			h := fnv.New64a()
			var b [4]byte
			for _, v := range perm {
				binary.LittleEndian.PutUint32(b[:], uint32(v))
				h.Write(b[:])
			}
			an := sparse.Analyze(pt.p, perm)
			fmt.Fprintf(&got, "%s %s %016x %d %g\n", pt.name, sparse.Ordering(o), h.Sum64(), an.FillL, an.Flops)
		}
	}
	if got.String() != orderingsGolden {
		t.Errorf("orderings moved; got\n%s", got.String())
	}
}

// disjointUnion returns the block-diagonal pattern of a and b: b's vertices
// follow a's, with no edge between the two.
func disjointUnion(a, b *sparse.Pattern) *sparse.Pattern {
	u := &sparse.Pattern{N: a.N + b.N, Adj: append([][]int32(nil), a.Adj...)}
	for _, nb := range b.Adj {
		shifted := make([]int32, len(nb))
		for i, v := range nb {
			shifted[i] = v + int32(a.N)
		}
		u.Adj = append(u.Adj, shifted)
	}
	return u
}

const orderingsGolden = `Si2 NATURAL f42683cd21e69af4 167898 4.37774e+07
Si2 RCM 7331eb677664d7e0 193535 6.3275985e+07
Si2 MMD c1a739c37555d3ac 120692 3.1563918e+07
Si2 RANDOM e69e1075f6fa22a0 234095 1.00617297e+08
Si2 METIS 2185987cd85d40f4 169660 5.3645432e+07
SiH4 NATURAL dc76261bca836740 110392 2.2859988e+07
SiH4 RCM da5948b0c64ac468 125773 3.2027961e+07
SiH4 MMD ee3764255cc8d368 87168 2.0247284e+07
SiH4 RANDOM c72068b5ffa27eb0 155454 5.4483146e+07
SiH4 METIS 433f78be489bddc0 114223 2.9392827e+07
SiNa NATURAL b72cff65c5f2ce48 142566 3.380233e+07
SiNa RCM 6985dd54aaeea584 166937 4.9974251e+07
SiNa MMD 0ef125b45383e388 118119 3.3159309e+07
SiNa RANDOM 0f3a65fb3bba8db0 200644 7.932128e+07
SiNa METIS 24eebcd832f22d20 149019 4.3235991e+07
Na5 NATURAL 2d0ef38833f6ee5f 149982 3.6880912e+07
Na5 RCM 85b0517f017e59c7 165348 4.9501116e+07
Na5 MMD 6639192d1e812b07 115349 3.0852675e+07
Na5 RANDOM c4f8d0029e5e3017 205047 8.2413743e+07
Na5 METIS 92c758f5010668eb 168761 5.4540633e+07
benzene NATURAL 1fb90a4ccd922a82 291824 9.8924788e+07
benzene RCM 1362ef1caf310b66 344384 1.50127932e+08
benzene MMD 2db6c2036ebd116a 214288 7.5902974e+07
benzene RANDOM ad8e07c42c6a094e 414592 2.37816496e+08
benzene METIS 1b53da8a821e0fea 303075 1.31518945e+08
Si10H16 NATURAL 175f3f21296ad83a 1223875 8.40581355e+08
Si10H16 RCM 6f17ed8004b02042 1437643 1.272383133e+09
Si10H16 MMD f3ece6f74e98955a 980505 8.11044553e+08
Si10H16 RANDOM e0f33624525d0826 1829421 2.218048509e+09
Si10H16 METIS cc59176234f84fa6 1241729 1.094071115e+09
Si5H12 NATURAL b7211b0bc531944d 1615314 1.249786376e+09
Si5H12 RCM 56ca32ad167abc55 2045640 2.219262468e+09
Si5H12 MMD 00398e50ca5781c9 1249287 1.142018793e+09
Si5H12 RANDOM 29baff2a33b04c35 2411281 3.380452847e+09
Si5H12 METIS 08f9ee55bbeeddc5 1619113 1.652179153e+09
SiO NATURAL c888b10c0f5b866a 4580407 6.001459985e+09
SiO RCM e7ccaf881e67c396 5673428 1.013296524e+10
SiO MMD 3c5a4b84529df5e6 3755883 6.264708775e+09
SiO RANDOM 9d638d9c4e3727d6 6994249 1.6657660969e+10
SiO METIS 6f97ce86984c1cca 4699009 8.291301351e+09
grid12 NATURAL e3a6fb1e721f9925 250416 3.8081044e+07
grid12 RCM 4fffd6285d3c6b8d 345533 8.2425223e+07
grid12 MMD 54289a91873319d5 297932 9.7028182e+07
grid12 RANDOM eb154f4ff92bc065 1009962 8.9426753e+08
grid12 METIS 2033487d6c0f6459 169470 2.3225958e+07
twocomp NATURAL e4471a3196293065 15494 1.015494e+06
twocomp RCM 714b7dc8a6cf25b9 14065 956845
twocomp MMD 3ea4f5920e43071d 10738 658214
twocomp RANDOM bfcc1b98607c32d1 18605 1.808039e+06
twocomp METIS c9ea7fb816403e69 13755 978555
`
