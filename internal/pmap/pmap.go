// Package pmap implements an immutable persistent hash map (a hash
// array-mapped trie). Updates return a new map sharing all unchanged
// structure with the original, so a point update on an n-entry map copies
// O(log n) trie nodes instead of the whole table. That property is what
// makes publishing a snapshot of the CAR-CS search index and models
// O(changed entries): a snapshot is a pointer copy, and the writer's next
// mutation path-copies only the branch it touches.
//
// A *Map is safe for concurrent readers without synchronization precisely
// because it never changes; the single writer produces successor maps.
package pmap

import "math/bits"

const (
	branchBits = 6
	branchMask = (1 << branchBits) - 1
	// maxShift is the deepest shift at which hash bits still discriminate;
	// below it, equal-hash keys live in a collision node.
	maxShift = 60
)

// Map is an immutable hash map from K to V. The empty map is created by
// New (or the NewStrings / NewInts convenience constructors, which supply
// the hash function); Set and Delete return new maps and never modify the
// receiver.
type Map[K comparable, V any] struct {
	hash func(K) uint64
	root *node[K, V]
	size int
}

// entry is one key/value pair. The value comes first so that a zero-size V
// (the struct{} of a set) sits at offset 0 and adds no trailing padding:
// an int64 set's entry is 8 bytes, not 16.
type entry[K comparable, V any] struct {
	val V
	key K
}

// item is one slot of a trie node: an interior branch (child != nil) or a
// leaf entry. Slots are the bulk of every node copy, so they carry nothing
// else: 32 bytes for string→int, 16 for an int64 set.
type item[K comparable, V any] struct {
	child *node[K, V]
	leaf  entry[K, V]
}

// node is an interior trie node: bitmap marks which of the 64 slots are
// occupied, items holds the occupied slots in slot order. A node with
// bitmap 0 is a collision node: it sits below maxShift, where hash bits are
// exhausted, and its items are leaves of equal-hash keys in insertion
// order. A collision node always holds at least two leaves; deleting down
// to one collapses it back into its parent's slot. edit is nil for nodes
// reachable from an immutable Map; a Builder tags nodes it allocated with
// its ownership token so it can mutate them in place (see builder.go).
type node[K comparable, V any] struct {
	bitmap uint64
	items  []item[K, V]
	edit   *byte
}

// collision reports whether n is a collision node.
func (n *node[K, V]) collision() bool { return n.bitmap == 0 }

// find returns the index of k among a collision node's leaves, or -1.
func (n *node[K, V]) find(k K) int {
	for i := range n.items {
		if n.items[i].leaf.key == k {
			return i
		}
	}
	return -1
}

// New creates an empty map using the given hash function.
func New[K comparable, V any](hash func(K) uint64) *Map[K, V] {
	return &Map[K, V]{hash: hash}
}

// NewStrings creates an empty map with string keys.
func NewStrings[V any]() *Map[string, V] { return New[string, V](HashString) }

// NewInts creates an empty map with int64 keys.
func NewInts[V any]() *Map[int64, V] { return New[int64, V](HashInt64) }

// HashString is the default string hash: FNV-1a with a final avalanche mix
// so the low bits (consumed first by the trie) are well distributed.
func HashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return mix64(h)
}

// HashInt64 is the default int64 hash (the splitmix64 finalizer).
func HashInt64(v int64) uint64 { return mix64(uint64(v)) }

func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Len returns the number of entries.
func (m *Map[K, V]) Len() int {
	if m == nil {
		return 0
	}
	return m.size
}

// Get returns the value stored under k.
func (m *Map[K, V]) Get(k K) (V, bool) {
	var zero V
	if m == nil || m.root == nil {
		return zero, false
	}
	h := m.hash(k)
	n := m.root
	for shift := uint(0); ; shift += branchBits {
		if n.collision() {
			if i := n.find(k); i >= 0 {
				return n.items[i].leaf.val, true
			}
			return zero, false
		}
		bit := uint64(1) << ((h >> shift) & branchMask)
		if n.bitmap&bit == 0 {
			return zero, false
		}
		it := &n.items[bits.OnesCount64(n.bitmap&(bit-1))]
		if it.child == nil {
			if it.leaf.key == k {
				return it.leaf.val, true
			}
			return zero, false
		}
		n = it.child
	}
}

// GetOr returns the value stored under k, or def if absent.
func (m *Map[K, V]) GetOr(k K, def V) V {
	if v, ok := m.Get(k); ok {
		return v
	}
	return def
}

// Set returns a map with k bound to v.
func (m *Map[K, V]) Set(k K, v V) *Map[K, V] {
	h := m.hash(k)
	if m.root == nil {
		return &Map[K, V]{hash: m.hash, root: &node[K, V]{
			bitmap: uint64(1) << (h & branchMask),
			items:  []item[K, V]{{leaf: entry[K, V]{key: k, val: v}}},
		}, size: 1}
	}
	root, added := m.root.set(m.hash, h, 0, k, v)
	size := m.size
	if added {
		size++
	}
	return &Map[K, V]{hash: m.hash, root: root, size: size}
}

func (n *node[K, V]) set(hash func(K) uint64, h uint64, shift uint, k K, v V) (*node[K, V], bool) {
	if n.collision() {
		i := n.find(k)
		items := make([]item[K, V], len(n.items), len(n.items)+1)
		copy(items, n.items)
		if i >= 0 {
			items[i].leaf.val = v
		} else {
			items = append(items, item[K, V]{leaf: entry[K, V]{key: k, val: v}})
		}
		return &node[K, V]{items: items}, i < 0
	}
	bit := uint64(1) << ((h >> shift) & branchMask)
	pos := bits.OnesCount64(n.bitmap & (bit - 1))
	if n.bitmap&bit == 0 {
		// Empty slot: insert a new leaf.
		items := make([]item[K, V], len(n.items)+1)
		copy(items, n.items[:pos])
		items[pos] = item[K, V]{leaf: entry[K, V]{key: k, val: v}}
		copy(items[pos+1:], n.items[pos:])
		return &node[K, V]{bitmap: n.bitmap | bit, items: items}, true
	}
	it := n.items[pos]
	var repl item[K, V]
	var added bool
	switch {
	case it.child != nil:
		child, a := it.child.set(hash, h, shift+branchBits, k, v)
		repl, added = item[K, V]{child: child}, a
	case it.leaf.key == k:
		repl = item[K, V]{leaf: entry[K, V]{key: k, val: v}}
	default:
		repl = split(hash, it.leaf, entry[K, V]{key: k, val: v}, h, shift+branchBits, nil)
		added = true
	}
	items := make([]item[K, V], len(n.items))
	copy(items, n.items)
	items[pos] = repl
	return &node[K, V]{bitmap: n.bitmap, items: items}, added
}

// split pushes an existing leaf and a new entry one level down, branching
// where their hashes first differ (or into a collision node when the hash
// bits are exhausted). The new nodes carry the ownership tag edit: nil on
// the immutable path, the caller's tag when a Builder splits, so its next
// edit there mutates in place instead of copying.
func split[K comparable, V any](hash func(K) uint64, old, new entry[K, V], newHash uint64, shift uint, edit *byte) item[K, V] {
	if shift > maxShift {
		return item[K, V]{child: &node[K, V]{items: []item[K, V]{{leaf: old}, {leaf: new}}, edit: edit}}
	}
	oldHash := hash(old.key)
	oldIdx := (oldHash >> shift) & branchMask
	newIdx := (newHash >> shift) & branchMask
	if oldIdx == newIdx {
		inner := split(hash, old, new, newHash, shift+branchBits, edit)
		return item[K, V]{child: &node[K, V]{bitmap: uint64(1) << oldIdx, items: []item[K, V]{inner}, edit: edit}}
	}
	n := &node[K, V]{bitmap: uint64(1)<<oldIdx | uint64(1)<<newIdx, edit: edit}
	if oldIdx < newIdx {
		n.items = []item[K, V]{{leaf: old}, {leaf: new}}
	} else {
		n.items = []item[K, V]{{leaf: new}, {leaf: old}}
	}
	return item[K, V]{child: n}
}

// slotFor returns the slot that replaces a branch whose child is now n:
// a collision node left with one leaf collapses into that leaf.
func slotFor[K comparable, V any](n *node[K, V]) item[K, V] {
	if n.collision() && len(n.items) == 1 {
		return n.items[0]
	}
	return item[K, V]{child: n}
}

// Delete returns a map with k removed (the receiver if absent).
func (m *Map[K, V]) Delete(k K) *Map[K, V] {
	if m.root == nil {
		return m
	}
	root, removed := m.root.delete(m.hash(k), 0, k)
	if !removed {
		return m
	}
	return &Map[K, V]{hash: m.hash, root: root, size: m.size - 1}
}

func (n *node[K, V]) delete(h uint64, shift uint, k K) (*node[K, V], bool) {
	if n.collision() {
		i := n.find(k)
		if i < 0 {
			return n, false
		}
		items := make([]item[K, V], 0, len(n.items)-1)
		items = append(items, n.items[:i]...)
		items = append(items, n.items[i+1:]...)
		return &node[K, V]{items: items}, true
	}
	bit := uint64(1) << ((h >> shift) & branchMask)
	if n.bitmap&bit == 0 {
		return n, false
	}
	pos := bits.OnesCount64(n.bitmap & (bit - 1))
	it := n.items[pos]
	switch {
	case it.child != nil:
		child, removed := it.child.delete(h, shift+branchBits, k)
		if !removed {
			return n, false
		}
		if child == nil {
			return n.without(bit, pos), true
		}
		items := make([]item[K, V], len(n.items))
		copy(items, n.items)
		items[pos] = slotFor(child)
		return &node[K, V]{bitmap: n.bitmap, items: items}, true
	case it.leaf.key == k:
		return n.without(bit, pos), true
	default:
		return n, false
	}
}

// without returns the node minus the slot at pos, or nil if it was the
// last slot.
func (n *node[K, V]) without(bit uint64, pos int) *node[K, V] {
	if len(n.items) == 1 {
		return nil
	}
	items := make([]item[K, V], 0, len(n.items)-1)
	items = append(items, n.items[:pos]...)
	items = append(items, n.items[pos+1:]...)
	return &node[K, V]{bitmap: n.bitmap &^ bit, items: items}
}

// Range calls f for every entry until f returns false. Iteration order is
// the trie's hash order: stable for a given map value, but arbitrary with
// respect to keys — callers needing determinism must sort.
func (m *Map[K, V]) Range(f func(K, V) bool) {
	if m != nil && m.root != nil {
		m.root.visit(f)
	}
}

func (n *node[K, V]) visit(f func(K, V) bool) bool {
	for i := range n.items {
		it := &n.items[i]
		if it.child != nil {
			if !it.child.visit(f) {
				return false
			}
		} else if !f(it.leaf.key, it.leaf.val) {
			return false
		}
	}
	return true
}
