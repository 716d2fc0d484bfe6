package pmap

import (
	"math/bits"
	"testing"
)

// fuzzKeys is the key space the fuzzer draws from: small enough that
// deletes and overwrites hit existing keys often.
const fuzzKeys = 48

// fuzzHashes are the hash modes the first input byte selects. The
// degenerate ones force collision nodes (equal 64-bit hashes), their
// collapse back into a leaf on delete, and their re-split when a key with
// a different hash lands on the collapsed slot.
var fuzzHashes = []func(int64) uint64{
	HashInt64,
	// Three hash values in total: every key collides with a third of the
	// key space at full depth.
	func(k int64) uint64 { return HashInt64(k % 3) },
	// Hashes that agree on every bit below 60: each insert walks a chain
	// of single-slot nodes to the last level, where 5 residues branch and
	// keys of one residue collide.
	func(k int64) uint64 { return uint64(k%5) << 60 },
}

// FuzzMapOps decodes its input into a sequence of Map and Builder
// operations and checks every step against a Go map model: the current
// map, the open builder, and every sealed map taken earlier, each of which
// must still equal the model snapshot taken when it was produced. After
// every step the trie's structural invariants are checked too.
//
// Input layout: byte 0 picks the hash mode; then each op is two bytes,
// (opcode, argument), where the argument's low bits pick the key and the
// whole byte is the value.
func FuzzMapOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 2, 1, 5, 3, 7, 3, 4, 5, 9, 4, 1})
	f.Add([]byte{1, 0, 0, 0, 3, 0, 6, 2, 3, 2, 0, 0, 9, 5, 0, 3, 12, 2, 9, 0, 15})
	f.Add([]byte{2, 3, 0, 3, 5, 3, 10, 4, 5, 5, 0, 4, 0, 3, 15, 5, 0, 2, 10, 0, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		hash := fuzzHashes[int(data[0])%len(fuzzHashes)]
		cur, model := New[int64, int](hash), map[int64]int{}
		var (
			b      *Builder[int64, int]
			bmodel map[int64]int
		)
		type sealed struct {
			m     *Map[int64, int]
			model map[int64]int
		}
		var snaps []sealed
		keep := func(m *Map[int64, int], model map[int64]int) {
			snaps = append(snaps, sealed{m, copyModel(model)})
		}
		keep(cur, model)
		for i := 1; i+1 < len(data); i += 2 {
			op, arg := data[i]%6, data[i+1]
			k, v := int64(arg)%fuzzKeys, int(arg)
			switch op {
			case 0: // immutable Set
				cur = cur.Set(k, v)
				model[k] = v
				keep(cur, model)
			case 1: // immutable Delete
				next := cur.Delete(k)
				if _, ok := model[k]; !ok && next != cur {
					t.Fatalf("op %d: Delete(%d) of a missing key did not return the receiver", i, k)
				}
				cur = next
				delete(model, k)
				keep(cur, model)
			case 2: // Builder.Set, opening a builder over cur if none is open
				if b == nil {
					b, bmodel = cur.Builder(), copyModel(model)
				}
				b.Set(k, v)
				bmodel[k] = v
			case 3: // Builder.Delete
				if b == nil {
					b, bmodel = cur.Builder(), copyModel(model)
				}
				b.Delete(k)
				delete(bmodel, k)
			case 4: // seal: the sealed map becomes current, the builder stays armed
				if b == nil {
					continue
				}
				cur, model = b.Map(), copyModel(bmodel)
				keep(cur, model)
			case 5: // drop the builder unsealed
				b, bmodel = nil, nil
			}
			checkMap(t, i, cur.root, cur.Len(), cur.Get, cur.Range, model, hash)
			if b != nil {
				bm := Map[int64, int]{hash: b.hash, root: b.root, size: b.size}
				checkMap(t, i, b.root, b.Len(), b.Get, bm.Range, bmodel, hash)
			}
		}
		for j, s := range snaps {
			checkMap(t, -j, s.m.root, s.m.Len(), s.m.Get, s.m.Range, s.model, hash)
		}
	})
}

func copyModel(m map[int64]int) map[int64]int {
	out := make(map[int64]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// checkMap compares one map (or builder) with its model — length, every
// key's lookup, and a Range that visits each entry exactly once — and then
// validates the trie under root.
func checkMap(t *testing.T, step int, root *node[int64, int], n int, get func(int64) (int, bool), rng func(func(int64, int) bool), model map[int64]int, hash func(int64) uint64) {
	t.Helper()
	if n != len(model) {
		t.Fatalf("step %d: Len = %d, model %d", step, n, len(model))
	}
	for k := int64(0); k < fuzzKeys; k++ {
		got, ok := get(k)
		want, wok := model[k]
		if ok != wok || got != want {
			t.Fatalf("step %d: Get(%d) = %d,%v; model %d,%v", step, k, got, ok, want, wok)
		}
	}
	seen := map[int64]bool{}
	rng(func(k int64, v int) bool {
		if seen[k] {
			t.Fatalf("step %d: Range visited %d twice", step, k)
		}
		seen[k] = true
		if want, ok := model[k]; !ok || v != want {
			t.Fatalf("step %d: Range gave %d=%d; model %d,%v", step, k, v, want, ok)
		}
		return true
	})
	if len(seen) != len(model) {
		t.Fatalf("step %d: Range visited %d entries, model %d", step, len(seen), len(model))
	}
	if root != nil {
		if leaves := validate(t, step, root, 0, 0, hash); leaves != n {
			t.Fatalf("step %d: trie holds %d leaves, Len %d", step, leaves, n)
		}
	}
}

// validate checks the trie's structural invariants below n and returns its
// leaf count: branch nodes are non-empty with one item per bitmap bit and
// every leaf in the slot its hash selects; collision nodes appear only
// once hash bits are exhausted and hold at least two distinct keys of one
// hash (a single survivor must have collapsed into its parent's slot).
// prefix is the hash bits the path to n has fixed.
func validate(t *testing.T, step int, n *node[int64, int], shift uint, prefix uint64, hash func(int64) uint64) int {
	t.Helper()
	if n.collision() {
		if shift <= maxShift {
			t.Fatalf("step %d: collision node at shift %d", step, shift)
		}
		if len(n.items) < 2 {
			t.Fatalf("step %d: collision node with %d leaves", step, len(n.items))
		}
		h0 := hash(n.items[0].leaf.key)
		keys := map[int64]bool{}
		for _, it := range n.items {
			if it.child != nil {
				t.Fatalf("step %d: collision node holds a branch", step)
			}
			if keys[it.leaf.key] || hash(it.leaf.key) != h0 {
				t.Fatalf("step %d: collision node holds key %d twice or of another hash", step, it.leaf.key)
			}
			keys[it.leaf.key] = true
		}
		return len(n.items)
	}
	if len(n.items) == 0 || bits.OnesCount64(n.bitmap) != len(n.items) {
		t.Fatalf("step %d: node bitmap %b with %d items", step, n.bitmap, len(n.items))
	}
	leaves := 0
	i := 0
	for slot := uint64(0); slot < 64; slot++ {
		if n.bitmap&(1<<slot) == 0 {
			continue
		}
		it := n.items[i]
		i++
		p := prefix | slot<<shift
		if it.child != nil {
			leaves += validate(t, step, it.child, shift+branchBits, p, hash)
			continue
		}
		if h := hash(it.leaf.key); h&(1<<(shift+branchBits)-1) != p&(1<<(shift+branchBits)-1) {
			t.Fatalf("step %d: key %d (hash %x) in slot %d at shift %d", step, it.leaf.key, h, slot, shift)
		}
		leaves++
	}
	return leaves
}
