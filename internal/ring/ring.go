// Package ring implements rendezvous (highest-random-weight) hashing: a
// consistent assignment of string keys — study names — to a set of nodes —
// gptuned replicas. Every party that knows the same node list computes the
// same owner for a key with no coordination, and removing a node reassigns
// only the keys that node owned: every other key keeps its owner, which is
// what lets a router eject a dead replica without reshuffling live studies.
//
// Rendezvous was chosen over a ketama-style virtual-node circle because the
// replica counts here are small (units to tens): O(n) per lookup is
// negligible, the balance is as good as the hash with no vnode tuning, and
// failover needs no extra structure: a router that ejects a replica routes
// on Without(dead).Owner, which is the next-highest weight for the key.
package ring

import (
	"sort"
)

// Ring is an immutable rendezvous hash over a set of node names. The zero
// value is an empty ring (no owners); build real rings with New. Methods are
// safe for concurrent use — a Ring never mutates after New.
type Ring struct {
	nodes []string // sorted, deduplicated
}

// New builds a ring over the given nodes. Duplicates and empty names are
// dropped; the node order does not matter (assignment depends only on the
// set).
func New(nodes ...string) *Ring {
	seen := make(map[string]bool, len(nodes))
	uniq := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		uniq = append(uniq, n)
	}
	sort.Strings(uniq)
	return &Ring{nodes: uniq}
}

// Nodes returns the ring's node set, sorted.
func (r *Ring) Nodes() []string {
	return append([]string(nil), r.nodes...)
}

// Len returns the number of nodes.
func (r *Ring) Len() int { return len(r.nodes) }

// Owner returns the node responsible for key, or "" and false on an empty
// ring. The owner is the node with the highest hash weight for the key; ties
// (astronomically unlikely with a 64-bit hash) break toward the
// lexicographically smaller node so every computation agrees.
func (r *Ring) Owner(key string) (string, bool) {
	if len(r.nodes) == 0 {
		return "", false
	}
	best := r.nodes[0]
	bestW := weight(r.nodes[0], key)
	for _, n := range r.nodes[1:] {
		if w := weight(n, key); w > bestW {
			best, bestW = n, w
		}
	}
	return best, true
}

// Without returns a ring over this ring's nodes minus the given ones — the
// healthy view a router routes on after ejecting dead replicas.
func (r *Ring) Without(nodes ...string) *Ring {
	drop := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		drop[n] = true
	}
	keep := make([]string, 0, len(r.nodes))
	for _, n := range r.nodes {
		if !drop[n] {
			keep = append(keep, n)
		}
	}
	return &Ring{nodes: keep}
}

// weight is the rendezvous score of (node, key): FNV-1a over node, a zero
// separator (node and key are length-delimited by it; names never contain
// NUL), then key, finished with an avalanche mix so near-identical inputs
// spread over the full 64-bit range.
func weight(node, key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(node); i++ {
		h ^= uint64(node[i])
		h *= prime64
	}
	h ^= 0
	h *= prime64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	// splitmix64 finalizer: FNV alone is weak in its low bits for short
	// inputs; the mix makes the max-weight winner effectively uniform.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
