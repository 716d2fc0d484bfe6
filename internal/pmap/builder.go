package pmap

import "math/bits"

// Builder is a transient, single-owner editor over a Map. It exists because
// path-copying is priced per Set: one Set on a large map copies every node
// on the branch it touches (a few KB near the root), so a bulk operation
// doing hundreds of Sets — indexing one document's terms, training a
// classifier on a description — re-copies the same near-root nodes over and
// over. A Builder copies each node at most once: the first edit under this
// builder copies the node and tags it as owned, and every later edit through
// the same builder mutates that copy in place. Map() seals the result back
// into an immutable Map.
//
// The contract mirrors Clojure's transients:
//
//   - A Builder is not safe for concurrent use; it belongs to one goroutine
//     (in CAR-CS, the single writer holding the container's mutex).
//   - The source Map is never modified; other readers may keep using it.
//   - After Map() is called the builder re-arms with a fresh ownership tag,
//     so continuing to edit it is safe (the sealed map is not disturbed) —
//     but the idiomatic use is build, seal, discard.
type Builder[K comparable, V any] struct {
	hash func(K) uint64
	root *node[K, V]
	size int
	// edit is this builder's ownership tag. Nodes whose edit field points
	// here were allocated by this builder since the last seal and may be
	// mutated in place; all other nodes are shared and must be copied first.
	// The tag must be a pointer to a non-zero-size type: all allocations of
	// an empty struct share one address, which would alias every builder.
	edit *byte
}

// Builder returns a transient editor seeded with the receiver's contents.
func (m *Map[K, V]) Builder() *Builder[K, V] {
	return &Builder[K, V]{hash: m.hash, root: m.root, size: m.size, edit: new(byte)}
}

// Len returns the number of entries currently in the builder.
func (b *Builder[K, V]) Len() int { return b.size }

// Get returns the value stored under k, observing pending edits.
func (b *Builder[K, V]) Get(k K) (V, bool) {
	m := Map[K, V]{hash: b.hash, root: b.root, size: b.size}
	return m.Get(k)
}

// GetOr returns the value stored under k, or def if absent.
func (b *Builder[K, V]) GetOr(k K, def V) V {
	if v, ok := b.Get(k); ok {
		return v
	}
	return def
}

// Map seals the builder into an immutable Map. The builder re-arms with a
// fresh ownership tag, so later edits copy again and cannot disturb the
// returned map.
func (b *Builder[K, V]) Map() *Map[K, V] {
	b.edit = new(byte)
	return &Map[K, V]{hash: b.hash, root: b.root, size: b.size}
}

// Set binds k to v.
func (b *Builder[K, V]) Set(k K, v V) {
	h := b.hash(k)
	if b.root == nil {
		b.root = &node[K, V]{
			bitmap: uint64(1) << (h & branchMask),
			items:  []item[K, V]{{leaf: entry[K, V]{key: k, val: v}}},
			edit:   b.edit,
		}
		b.size = 1
		return
	}
	root, added := b.set(b.root, h, 0, k, v)
	b.root = root
	if added {
		b.size++
	}
}

// editable returns n if this builder already owns it, otherwise an owned
// copy. The copy reserves one slot of growth so a following insert can
// append without reallocating.
func (b *Builder[K, V]) editable(n *node[K, V]) *node[K, V] {
	if n.edit == b.edit {
		return n
	}
	items := make([]item[K, V], len(n.items), len(n.items)+1)
	copy(items, n.items)
	return &node[K, V]{bitmap: n.bitmap, items: items, edit: b.edit}
}

func (b *Builder[K, V]) set(n *node[K, V], h uint64, shift uint, k K, v V) (*node[K, V], bool) {
	n = b.editable(n)
	if n.collision() {
		if i := n.find(k); i >= 0 {
			n.items[i].leaf.val = v
			return n, false
		}
		n.items = append(n.items, item[K, V]{leaf: entry[K, V]{key: k, val: v}})
		return n, true
	}
	bit := uint64(1) << ((h >> shift) & branchMask)
	pos := bits.OnesCount64(n.bitmap & (bit - 1))
	if n.bitmap&bit == 0 {
		n.items = append(n.items, item[K, V]{})
		copy(n.items[pos+1:], n.items[pos:])
		n.items[pos] = item[K, V]{leaf: entry[K, V]{key: k, val: v}}
		n.bitmap |= bit
		return n, true
	}
	it := &n.items[pos]
	switch {
	case it.child != nil:
		child, added := b.set(it.child, h, shift+branchBits, k, v)
		it.child = child
		return n, added
	case it.leaf.key == k:
		it.leaf.val = v
		return n, false
	default:
		*it = split(b.hash, it.leaf, entry[K, V]{key: k, val: v}, h, shift+branchBits, b.edit)
		return n, true
	}
}

// Delete removes k if present.
func (b *Builder[K, V]) Delete(k K) {
	if b.root == nil {
		return
	}
	root, removed := b.delete(b.root, b.hash(k), 0, k)
	if removed {
		b.root = root
		b.size--
	}
}

func (b *Builder[K, V]) delete(n *node[K, V], h uint64, shift uint, k K) (*node[K, V], bool) {
	if n.collision() {
		i := n.find(k)
		if i < 0 {
			return n, false
		}
		n = b.editable(n)
		copy(n.items[i:], n.items[i+1:])
		n.items = n.items[:len(n.items)-1]
		return n, true
	}
	bit := uint64(1) << ((h >> shift) & branchMask)
	if n.bitmap&bit == 0 {
		return n, false
	}
	pos := bits.OnesCount64(n.bitmap & (bit - 1))
	it := n.items[pos]
	switch {
	case it.child != nil:
		child, removed := b.delete(it.child, h, shift+branchBits, k)
		if !removed {
			return n, false
		}
		n = b.editable(n)
		if child == nil {
			return b.without(n, bit, pos), true
		}
		n.items[pos] = slotFor(child)
		return n, true
	case it.leaf.key == k:
		return b.without(b.editable(n), bit, pos), true
	default:
		return n, false
	}
}

// without removes the slot at pos from an owned node, or returns nil if it
// was the last slot.
func (b *Builder[K, V]) without(n *node[K, V], bit uint64, pos int) *node[K, V] {
	if len(n.items) == 1 {
		return nil
	}
	copy(n.items[pos:], n.items[pos+1:])
	n.items = n.items[:len(n.items)-1]
	n.bitmap &^= bit
	return n
}
