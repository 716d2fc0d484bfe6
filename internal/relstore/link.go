package relstore

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"carcs/internal/pmap"
)

// linkState is one immutable version of a link table's relation.
type linkState struct {
	fwd   *pmap.Map[int64, *pmap.Map[int64, struct{}]]
	rev   *pmap.Map[int64, *pmap.Map[int64, struct{}]]
	pairs int
}

// LinkTable is a many-to-many association between two tables, the relational
// join tables of the CAR-CS schema ("Tags, items in the classification,
// dataset used, and authors are associated with an assignment using a
// many-to-many relationship"). Links are unordered pairs (left id, right id)
// with set semantics. Like Table, reads are lock-free against an atomically
// published immutable state.
type LinkTable struct {
	mu          sync.Mutex
	name        string
	left, right string // table names, documentation only
	state       atomic.Pointer[linkState]
}

func newLinkState() *linkState {
	return &linkState{
		fwd: pmap.NewInts[*pmap.Map[int64, struct{}]](),
		rev: pmap.NewInts[*pmap.Map[int64, struct{}]](),
	}
}

// CreateLink adds a named link table relating the left and right tables.
func (s *Store) CreateLink(name, leftTable, rightTable string) (*LinkTable, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if name == "" {
		return nil, fmt.Errorf("relstore: empty link name")
	}
	if _, dup := s.links[name]; dup {
		return nil, fmt.Errorf("relstore: link %q exists", name)
	}
	l := &LinkTable{name: name, left: leftTable, right: rightTable}
	l.state.Store(newLinkState())
	s.links[name] = l
	return l, nil
}

// Link returns the named link table, or nil.
func (s *Store) Link(name string) *LinkTable {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.links[name]
}

// LinkNames lists link tables, sorted.
func (s *Store) LinkNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.links))
	for n := range s.links {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Name returns the link table's name.
func (l *LinkTable) Name() string { return l.name }

// Snap returns an immutable snapshot of the link table at its current
// version; see Store.Snap.
func (l *LinkTable) Snap() *LinkTable {
	nl := &LinkTable{name: l.name, left: l.left, right: l.right}
	nl.state.Store(l.state.Load())
	return nl
}

// addTo links left->right in one direction map, returning the updated map
// and whether the pair was new.
func addTo(m *pmap.Map[int64, *pmap.Map[int64, struct{}]], from, to int64) (*pmap.Map[int64, *pmap.Map[int64, struct{}]], bool) {
	set := m.GetOr(from, nil)
	if set == nil {
		set = pmap.NewInts[struct{}]()
	} else if _, ok := set.Get(to); ok {
		return m, false
	}
	return m.Set(from, set.Set(to, struct{}{})), true
}

// removeFrom unlinks from->to, returning the updated map and whether the
// pair existed.
func removeFrom(m *pmap.Map[int64, *pmap.Map[int64, struct{}]], from, to int64) (*pmap.Map[int64, *pmap.Map[int64, struct{}]], bool) {
	set := m.GetOr(from, nil)
	if set == nil {
		return m, false
	}
	if _, ok := set.Get(to); !ok {
		return m, false
	}
	if next := set.Delete(to); next.Len() > 0 {
		return m.Set(from, next), true
	}
	return m.Delete(from), true
}

// Add links left and right; re-adding an existing pair is a no-op.
func (l *LinkTable) Add(left, right int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.state.Load()
	fwd, added := addTo(st.fwd, left, right)
	if !added {
		return
	}
	rev, _ := addTo(st.rev, right, left)
	pairs := st.pairs + 1
	l.state.Store(&linkState{fwd: fwd, rev: rev, pairs: pairs})
}

// AddBatch links every (left, right) pair in one edit session and publishes
// a single new state. The outer direction maps and every inner set the
// batch touches are edited through pmap.Builders — one per direction map
// and one per (direction, id) set, sealed once at the end — so each trie
// node is copied at most once for the whole batch. Pairs already linked
// are skipped, matching Add's set semantics.
func (l *LinkTable) AddBatch(pairs [][2]int64) {
	if len(pairs) == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.state.Load()
	fwd := make(map[int64]*pmap.Builder[int64, struct{}])
	rev := make(map[int64]*pmap.Builder[int64, struct{}])
	added := 0
	for _, p := range pairs {
		left, right := p[0], p[1]
		fb := setBuilder(fwd, st.fwd, left)
		if _, ok := fb.Get(right); ok {
			continue
		}
		fb.Set(right, struct{}{})
		setBuilder(rev, st.rev, right).Set(left, struct{}{})
		added++
	}
	if added == 0 {
		return
	}
	l.state.Store(&linkState{fwd: sealSets(st.fwd, fwd), rev: sealSets(st.rev, rev), pairs: st.pairs + added})
}

// setBuilder returns the open builder of from's set in one direction map,
// opening it over the published set (or an empty one) on first use.
func setBuilder(open map[int64]*pmap.Builder[int64, struct{}], m *pmap.Map[int64, *pmap.Map[int64, struct{}]], from int64) *pmap.Builder[int64, struct{}] {
	b := open[from]
	if b == nil {
		set := m.GetOr(from, nil)
		if set == nil {
			set = pmap.NewInts[struct{}]()
		}
		b = set.Builder()
		open[from] = b
	}
	return b
}

// sealSets stores every open set builder's sealed set into m through one
// builder session.
func sealSets(m *pmap.Map[int64, *pmap.Map[int64, struct{}]], open map[int64]*pmap.Builder[int64, struct{}]) *pmap.Map[int64, *pmap.Map[int64, struct{}]] {
	b := m.Builder()
	for from, sb := range open {
		b.Set(from, sb.Map())
	}
	return b.Map()
}

// Remove unlinks the pair; removing a missing pair is a no-op.
func (l *LinkTable) Remove(left, right int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.state.Load()
	fwd, removed := removeFrom(st.fwd, left, right)
	if !removed {
		return
	}
	rev, _ := removeFrom(st.rev, right, left)
	l.state.Store(&linkState{fwd: fwd, rev: rev, pairs: st.pairs - 1})
}

// RemoveLeft drops every link whose left side is the given id.
func (l *LinkTable) RemoveLeft(left int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.state.Load()
	set := st.fwd.GetOr(left, nil)
	if set == nil {
		return
	}
	rev := st.rev
	set.Range(func(right int64, _ struct{}) bool {
		rev, _ = removeFrom(rev, right, left)
		return true
	})
	l.state.Store(&linkState{
		fwd:   st.fwd.Delete(left),
		rev:   rev,
		pairs: st.pairs - set.Len(),
	})
}

// Has reports whether the pair is linked.
func (l *LinkTable) Has(left, right int64) bool {
	set := l.state.Load().fwd.GetOr(left, nil)
	if set == nil {
		return false
	}
	_, ok := set.Get(right)
	return ok
}

// Rights returns the sorted right-side ids linked to left.
func (l *LinkTable) Rights(left int64) []int64 {
	return sortedSet(l.state.Load().fwd.GetOr(left, nil))
}

// Lefts returns the sorted left-side ids linked to right.
func (l *LinkTable) Lefts(right int64) []int64 {
	return sortedSet(l.state.Load().rev.GetOr(right, nil))
}

// Len returns the number of linked pairs.
func (l *LinkTable) Len() int { return l.state.Load().pairs }

// Pairs returns every linked pair sorted by (left, right); used by the
// snapshot writer and by integrity tests.
func (l *LinkTable) Pairs() [][2]int64 {
	st := l.state.Load()
	var out [][2]int64
	st.fwd.Range(func(left int64, set *pmap.Map[int64, struct{}]) bool {
		set.Range(func(right int64, _ struct{}) bool {
			out = append(out, [2]int64{left, right})
			return true
		})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// CheckSymmetry verifies the forward and reverse maps describe the same
// relation, returning discrepancies (empty when consistent).
func (l *LinkTable) CheckSymmetry() []string {
	st := l.state.Load()
	var bad []string
	st.fwd.Range(func(left int64, set *pmap.Map[int64, struct{}]) bool {
		set.Range(func(right int64, _ struct{}) bool {
			if rs := st.rev.GetOr(right, nil); rs == nil {
				bad = append(bad, fmt.Sprintf("fwd(%d,%d) missing in rev", left, right))
			} else if _, ok := rs.Get(left); !ok {
				bad = append(bad, fmt.Sprintf("fwd(%d,%d) missing in rev", left, right))
			}
			return true
		})
		return true
	})
	st.rev.Range(func(right int64, set *pmap.Map[int64, struct{}]) bool {
		set.Range(func(left int64, _ struct{}) bool {
			if fs := st.fwd.GetOr(left, nil); fs == nil {
				bad = append(bad, fmt.Sprintf("rev(%d,%d) missing in fwd", right, left))
			} else if _, ok := fs.Get(right); !ok {
				bad = append(bad, fmt.Sprintf("rev(%d,%d) missing in fwd", right, left))
			}
			return true
		})
		return true
	})
	sort.Strings(bad)
	return bad
}

func sortedSet(set *pmap.Map[int64, struct{}]) []int64 {
	out := make([]int64, 0, set.Len())
	set.Range(func(k int64, _ struct{}) bool {
		out = append(out, k)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
