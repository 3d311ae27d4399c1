// Package consistent implements a consistent-hashing ring with virtual
// nodes. The TxCache library uses it to map cache keys to cache servers
// (paper §4): every application node holds the complete server list, so a
// key maps to its responsible node with no lookup round trip, and adding a
// node to n others moves only about a 1/(n+1) fraction of keys, all onto it.
package consistent

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultReplicas is the number of virtual nodes per server. 256 keeps the
// load spread within a few percent for small clusters.
const DefaultReplicas = 256

// Ring is a consistent-hashing ring, built by Add and then read by Get.
// Get is safe for concurrent use, but must not run concurrently with Add.
type Ring struct {
	replicas int
	points   []point // sorted by hash
}

type point struct {
	hash uint64
	node string
}

// New returns an empty ring with replicas virtual nodes per server;
// replicas <= 0 selects DefaultReplicas.
func New(replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	return &Ring{replicas: replicas}
}

func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	// FNV-1a mixes similar short strings (node#0, node#1, ...) poorly in the
	// high bits; finish with a splitmix64 avalanche for a uniform ring.
	z := h.Sum64() + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Add inserts a node. Each name is added once: a second Add of the same
// name would give it twice the share of keys.
func (r *Ring) Add(node string) {
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, point{hashKey(fmt.Sprintf("%s#%d", node, i)), node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Get returns the node responsible for key, or "" if the ring is empty.
func (r *Ring) Get(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}
