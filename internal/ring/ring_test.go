package ring

import (
	"fmt"
	"testing"
)

func names(n int, prefix string) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s-%d", prefix, i)
	}
	return out
}

// TestOwnerDeterministicAndOrderInvariant: the assignment depends only on
// the node set, never on the order the nodes were listed in — a client and a
// router configured with permuted replica lists must agree on every study's
// home.
func TestOwnerDeterministicAndOrderInvariant(t *testing.T) {
	a := New("n0", "n1", "n2")
	b := New("n2", "n0", "n1", "n0") // permuted, with a duplicate
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("study-%d", i)
		oa, ok := a.Owner(key)
		if !ok {
			t.Fatal("owner not found on non-empty ring")
		}
		ob, _ := b.Owner(key)
		if oa != ob {
			t.Fatalf("key %s: owner %s on ring a, %s on permuted ring b", key, oa, ob)
		}
	}
}

// TestEmptyRing: the zero value and New() both report no owner.
func TestEmptyRing(t *testing.T) {
	var zero Ring
	if _, ok := zero.Owner("x"); ok {
		t.Error("zero ring claimed an owner")
	}
	if _, ok := New().Owner("x"); ok {
		t.Error("empty ring claimed an owner")
	}
	if got := New("", "", "").Len(); got != 0 {
		t.Errorf("ring over empty names has %d nodes, want 0", got)
	}
}

// TestMinimalDisruption is the property consistent hashing exists for:
// removing one node must reassign exactly the keys that node owned and leave
// every other key's owner unchanged.
func TestMinimalDisruption(t *testing.T) {
	nodes := names(5, "replica")
	r := New(nodes...)
	const keys = 1000
	owner := make(map[string]string, keys)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("study-%d", i)
		o, _ := r.Owner(k)
		owner[k] = o
	}
	dead := nodes[2]
	r2 := r.Without(dead)
	if r2.Len() != len(nodes)-1 {
		t.Fatalf("Without left %d nodes, want %d", r2.Len(), len(nodes)-1)
	}
	moved := 0
	for k, o := range owner {
		o2, ok := r2.Owner(k)
		if !ok {
			t.Fatal("no owner after removal")
		}
		if o == dead {
			moved++
			if o2 == dead {
				t.Fatalf("key %s still assigned to removed node", k)
			}
			continue
		}
		if o2 != o {
			t.Fatalf("key %s moved %s -> %s although its owner %s survived", k, o, o2, o)
		}
	}
	if moved == 0 {
		t.Fatal("removed node owned no keys; balance test invalid")
	}
}

// TestBalance: with a 64-bit mixed hash, 5 nodes over 5000 keys should each
// own roughly a fifth; a node outside [10%, 35%] means the weight function
// is broken, not unlucky.
func TestBalance(t *testing.T) {
	nodes := names(5, "http://replica")
	r := New(nodes...)
	counts := make(map[string]int)
	const keys = 5000
	for i := 0; i < keys; i++ {
		o, _ := r.Owner(fmt.Sprintf("study-%d", i))
		counts[o]++
	}
	for _, n := range nodes {
		frac := float64(counts[n]) / keys
		if frac < 0.10 || frac > 0.35 {
			t.Errorf("node %s owns %.1f%% of keys, want ~20%%", n, 100*frac)
		}
	}
}

// TestWithoutUnknownNode: removing a node that is not in the ring is a no-op.
func TestWithoutUnknownNode(t *testing.T) {
	r := New("a", "b")
	r2 := r.Without("zzz")
	if r2.Len() != 2 {
		t.Fatalf("removing unknown node changed ring size to %d", r2.Len())
	}
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("s%d", i)
		a, _ := r.Owner(k)
		b, _ := r2.Owner(k)
		if a != b {
			t.Fatalf("key %s changed owner after removing an unknown node", k)
		}
	}
}
