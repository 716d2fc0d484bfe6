// Package relstore is a small in-memory relational store: typed tables with
// auto-incrementing integer primary keys, unique and secondary hash indexes,
// predicate scans, many-to-many link tables, and JSON snapshot/restore.
//
// It stands in for the PostgreSQL database of the original CAR-CS prototype
// (see DESIGN.md). The CAR-CS schema is small — assignments, tags,
// classification entries, datasets, authors, and many-to-many associations
// between them — and this store implements exactly those relational
// semantics with stdlib-only code. All operations are safe for concurrent
// use.
//
// Each table's contents live in an immutable state value published through
// an atomic pointer: readers never block, writers serialize on a mutex and
// path-copy only the rows and index branches they touch (persistent maps
// from internal/pmap). Snap captures a whole table or store in O(tables),
// which is what makes the core package's read views cheap to publish.
package relstore

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"carcs/internal/pmap"
)

// Type enumerates the column types the store supports.
type Type int

const (
	// String columns hold Go strings.
	String Type = iota
	// Int columns hold int64 values.
	Int
	// Float columns hold float64 values.
	Float
	// Bool columns hold booleans.
	Bool
	// StringList columns hold []string values (used for denormalized
	// small lists such as author name arrays).
	StringList
)

func (t Type) String() string {
	switch t {
	case String:
		return "string"
	case Int:
		return "int"
	case Float:
		return "float"
	case Bool:
		return "bool"
	case StringList:
		return "stringlist"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Column describes one table column.
type Column struct {
	Name string
	Type Type
	// Unique enforces a unique index over non-zero values.
	Unique bool
	// Indexed maintains a secondary hash index for equality lookups.
	Indexed bool
}

// Schema describes a table: its name and columns. Every table implicitly has
// an "id" Int primary-key column assigned by the store; schemas must not
// declare one.
type Schema struct {
	Name    string
	Columns []Column
}

// Row is one record. The "id" key holds the int64 primary key.
type Row map[string]any

// ID returns the primary key of the row (0 if unset).
func (r Row) ID() int64 {
	id, _ := r["id"].(int64)
	return id
}

// clone returns a deep-enough copy of the row: the map and any string
// slices are copied so callers can never alias stored state.
func (r Row) clone() Row {
	out := make(Row, len(r))
	for k, v := range r {
		if s, ok := v.([]string); ok {
			cp := make([]string, len(s))
			copy(cp, s)
			out[k] = cp
			continue
		}
		out[k] = v
	}
	return out
}

// tableState is one immutable version of a table's contents. Rows stored in
// it are never mutated in place; every update stores a fresh clone.
type tableState struct {
	rows   *pmap.Map[int64, Row]
	nextID int64
	// uniques and indexes map column name -> encoded value -> owner. The
	// outer maps are schema-sized and copied wholesale per mutation; the
	// inner persistent maps share structure across versions.
	uniques map[string]*pmap.Map[string, int64]
	indexes map[string]*pmap.Map[string, *pmap.Map[int64, struct{}]]
}

// clone returns a shallow copy whose outer index maps are fresh, so the
// writer can re-point inner persistent maps without disturbing readers of
// the previous state.
func (st *tableState) clone() *tableState {
	ns := &tableState{
		rows:    st.rows,
		nextID:  st.nextID,
		uniques: make(map[string]*pmap.Map[string, int64], len(st.uniques)),
		indexes: make(map[string]*pmap.Map[string, *pmap.Map[int64, struct{}]], len(st.indexes)),
	}
	for c, m := range st.uniques {
		ns.uniques[c] = m
	}
	for c, m := range st.indexes {
		ns.indexes[c] = m
	}
	return ns
}

// Table is a collection of rows under a schema. Reads load the current
// state without locking; writes serialize on mu and publish a new state.
type Table struct {
	mu     sync.Mutex
	schema Schema
	byCol  map[string]Column
	state  atomic.Pointer[tableState]
}

// Store is a named collection of tables and link tables.
type Store struct {
	mu     sync.RWMutex
	tables map[string]*Table
	links  map[string]*LinkTable
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		tables: make(map[string]*Table),
		links:  make(map[string]*LinkTable),
	}
}

// Snap returns an immutable snapshot of the store: every table and link
// table captured at its current version, sharing all row storage with the
// live store. Snapshots serve reads (and Snapshot serialization) but must
// not be mutated; mutations on the live store never affect them.
func (s *Store) Snap() *Store {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ns := &Store{
		tables: make(map[string]*Table, len(s.tables)),
		links:  make(map[string]*LinkTable, len(s.links)),
	}
	for n, t := range s.tables {
		ns.tables[n] = t.Snap()
	}
	for n, l := range s.links {
		ns.links[n] = l.Snap()
	}
	return ns
}

// CreateTable adds a table with the given schema. It fails on duplicate
// table names, duplicate column names, or a column named "id".
func (s *Store) CreateTable(schema Schema) (*Table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if schema.Name == "" {
		return nil, fmt.Errorf("relstore: empty table name")
	}
	if _, dup := s.tables[schema.Name]; dup {
		return nil, fmt.Errorf("relstore: table %q exists", schema.Name)
	}
	t := &Table{
		schema: schema,
		byCol:  make(map[string]Column, len(schema.Columns)),
	}
	st := &tableState{
		rows:    pmap.NewInts[Row](),
		uniques: make(map[string]*pmap.Map[string, int64]),
		indexes: make(map[string]*pmap.Map[string, *pmap.Map[int64, struct{}]]),
	}
	for _, c := range schema.Columns {
		if c.Name == "id" {
			return nil, fmt.Errorf("relstore: table %q declares reserved column id", schema.Name)
		}
		if _, dup := t.byCol[c.Name]; dup {
			return nil, fmt.Errorf("relstore: table %q duplicate column %q", schema.Name, c.Name)
		}
		t.byCol[c.Name] = c
		if c.Unique {
			st.uniques[c.Name] = pmap.NewStrings[int64]()
		}
		if c.Indexed {
			st.indexes[c.Name] = pmap.NewStrings[*pmap.Map[int64, struct{}]]()
		}
	}
	t.state.Store(st)
	s.tables[schema.Name] = t
	return t, nil
}

// Table returns the named table, or nil if absent.
func (s *Store) Table(name string) *Table {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tables[name]
}

// TableNames lists the store's tables, sorted.
func (s *Store) TableNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.tables))
	for n := range s.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Snap returns an immutable snapshot of the table at its current version;
// see Store.Snap.
func (t *Table) Snap() *Table {
	nt := &Table{schema: t.schema, byCol: t.byCol}
	nt.state.Store(t.state.Load())
	return nt
}

// Schema returns a copy of the table's schema.
func (t *Table) Schema() Schema {
	cols := make([]Column, len(t.schema.Columns))
	copy(cols, t.schema.Columns)
	return Schema{Name: t.schema.Name, Columns: cols}
}

// Len returns the number of rows.
func (t *Table) Len() int { return t.state.Load().rows.Len() }

// checkTypes validates that every key in r names a schema column and every
// value matches the column's type. The id key is ignored.
func (t *Table) checkTypes(r Row) error {
	for k, v := range r {
		if k == "id" {
			continue
		}
		col, ok := t.byCol[k]
		if !ok {
			return fmt.Errorf("relstore: %s: unknown column %q", t.schema.Name, k)
		}
		if v == nil {
			continue
		}
		var good bool
		switch col.Type {
		case String:
			_, good = v.(string)
		case Int:
			_, good = v.(int64)
		case Float:
			_, good = v.(float64)
		case Bool:
			_, good = v.(bool)
		case StringList:
			_, good = v.([]string)
		}
		if !good {
			return fmt.Errorf("relstore: %s.%s: value %T does not match %v", t.schema.Name, k, v, col.Type)
		}
	}
	return nil
}

// encodeKey renders an indexable value as a string key for the persistent
// index maps, prefixed by type so values of different types never collide
// ([]string values are not indexable and are rejected at schema time by
// convention).
func encodeKey(v any) (string, bool) {
	switch x := v.(type) {
	case string:
		return "s" + x, true
	case int64:
		return "i" + strconv.FormatInt(x, 10), true
	case float64:
		return "f" + strconv.FormatFloat(x, 'b', -1, 64), true
	case bool:
		if x {
			return "bt", true
		}
		return "bf", true
	}
	return "", false
}

// Insert adds a row and returns its assigned id. Unique constraints are
// enforced over non-nil values.
func (t *Table) Insert(r Row) (int64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.checkTypes(r); err != nil {
		return 0, err
	}
	st := t.state.Load()
	for col, idx := range st.uniques {
		v, ok := r[col]
		if !ok || v == nil {
			continue
		}
		if k, ok := encodeKey(v); ok {
			if owner, taken := idx.Get(k); taken {
				return 0, fmt.Errorf("relstore: %s.%s: duplicate value %v (row %d)", t.schema.Name, col, v, owner)
			}
		}
	}
	ns := st.clone()
	ns.nextID++
	id := ns.nextID
	row := r.clone()
	row["id"] = id
	ns.rows = ns.rows.Set(id, row)
	ns.indexRow(id, row)
	t.state.Store(ns)
	return id, nil
}

// InsertBatch adds every row in one edit session and returns their assigned
// ids in order. All type and unique-constraint checks — against the current
// state and within the batch — run before any mutation, so the batch is
// all-or-nothing. The rows land in a single pmap.Builder pass per container,
// copying each trie node at most once for the whole batch instead of once
// per row, and one state publish covers all of them.
func (t *Table) InsertBatch(rows []Row) ([]int64, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.state.Load()
	var inBatch map[string]map[string]int
	for i, r := range rows {
		if err := t.checkTypes(r); err != nil {
			return nil, err
		}
		for col, idx := range st.uniques {
			v, ok := r[col]
			if !ok || v == nil {
				continue
			}
			k, ok := encodeKey(v)
			if !ok {
				continue
			}
			if owner, taken := idx.Get(k); taken {
				return nil, fmt.Errorf("relstore: %s.%s: duplicate value %v (row %d)", t.schema.Name, col, v, owner)
			}
			if inBatch == nil {
				inBatch = make(map[string]map[string]int)
			}
			seen := inBatch[col]
			if seen == nil {
				seen = make(map[string]int)
				inBatch[col] = seen
			}
			if prev, dup := seen[k]; dup {
				return nil, fmt.Errorf("relstore: %s.%s: duplicate value %v within batch (items %d and %d)", t.schema.Name, col, v, prev, i)
			}
			seen[k] = i
		}
	}
	ns := st.clone()
	ids := make([]int64, len(rows))
	stored := make([]Row, len(rows))
	for i, r := range rows {
		ns.nextID++
		ids[i] = ns.nextID
		stored[i] = r.clone()
		stored[i]["id"] = ids[i]
	}
	ns.install(stored)
	t.state.Store(ns)
	return ids, nil
}

// install writes rows, each already carrying its id, into the state and
// its indexes through one pmap.Builder session per container, so each trie
// node is copied at most once for the whole batch. Every secondary-index
// posting set the batch touches gets its own builder too, open for the
// whole session and sealed once at the end, instead of one path-copying
// Set per row. The receiver must be a freshly cloned, not-yet-published
// state.
func (st *tableState) install(rows []Row) {
	rowsB := st.rows.Builder()
	uniqueBs := make(map[string]*pmap.Builder[string, int64], len(st.uniques))
	for col, idx := range st.uniques {
		uniqueBs[col] = idx.Builder()
	}
	// postings[col][key] is the open builder of one posting set.
	postings := make(map[string]map[string]*pmap.Builder[int64, struct{}], len(st.indexes))
	for col := range st.indexes {
		postings[col] = make(map[string]*pmap.Builder[int64, struct{}])
	}
	for _, row := range rows {
		id := row.ID()
		rowsB.Set(id, row)
		for col, ub := range uniqueBs {
			if v, ok := row[col]; ok && v != nil {
				if k, ok := encodeKey(v); ok {
					ub.Set(k, id)
				}
			}
		}
		for col, sets := range postings {
			if v, ok := row[col]; ok && v != nil {
				if k, ok := encodeKey(v); ok {
					sb := sets[k]
					if sb == nil {
						set := st.indexes[col].GetOr(k, nil)
						if set == nil {
							set = pmap.NewInts[struct{}]()
						}
						sb = set.Builder()
						sets[k] = sb
					}
					sb.Set(id, struct{}{})
				}
			}
		}
	}
	st.rows = rowsB.Map()
	for col, ub := range uniqueBs {
		st.uniques[col] = ub.Map()
	}
	for col, sets := range postings {
		if len(sets) == 0 {
			continue
		}
		ib := st.indexes[col].Builder()
		for k, sb := range sets {
			ib.Set(k, sb.Map())
		}
		st.indexes[col] = ib.Map()
	}
}

// Get returns a copy of the row with the given id, or nil if absent.
func (t *Table) Get(id int64) Row {
	r, ok := t.state.Load().rows.Get(id)
	if !ok {
		return nil
	}
	return r.clone()
}

// Update merges the given column values into the row with the given id.
// Setting a column to nil clears it. Unique constraints are re-checked.
func (t *Table) Update(id int64, changes Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.state.Load()
	old, ok := st.rows.Get(id)
	if !ok {
		return fmt.Errorf("relstore: %s: no row %d", t.schema.Name, id)
	}
	if err := t.checkTypes(changes); err != nil {
		return err
	}
	next := old.clone()
	for k, v := range changes {
		if k == "id" {
			continue
		}
		if v == nil {
			delete(next, k)
			continue
		}
		next[k] = v
	}
	for col, idx := range st.uniques {
		v, ok := next[col]
		if !ok || v == nil {
			continue
		}
		if k, ok := encodeKey(v); ok {
			if owner, taken := idx.Get(k); taken && owner != id {
				return fmt.Errorf("relstore: %s.%s: duplicate value %v (row %d)", t.schema.Name, col, v, owner)
			}
		}
	}
	ns := st.clone()
	ns.unindexRow(id, old)
	next["id"] = id
	ns.rows = ns.rows.Set(id, next)
	ns.indexRow(id, next)
	t.state.Store(ns)
	return nil
}

// Delete removes the row with the given id; deleting a missing row is an
// error so callers surface dangling references.
func (t *Table) Delete(id int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.state.Load()
	old, ok := st.rows.Get(id)
	if !ok {
		return fmt.Errorf("relstore: %s: no row %d", t.schema.Name, id)
	}
	ns := st.clone()
	ns.unindexRow(id, old)
	ns.rows = ns.rows.Delete(id)
	t.state.Store(ns)
	return nil
}

// indexRow records the row in the state's unique and secondary indexes.
// The receiver must be a freshly cloned, not-yet-published state.
func (st *tableState) indexRow(id int64, r Row) {
	for col, idx := range st.uniques {
		if v, ok := r[col]; ok && v != nil {
			if k, ok := encodeKey(v); ok {
				st.uniques[col] = idx.Set(k, id)
			}
		}
	}
	for col, idx := range st.indexes {
		if v, ok := r[col]; ok && v != nil {
			if k, ok := encodeKey(v); ok {
				set := idx.GetOr(k, nil)
				if set == nil {
					set = pmap.NewInts[struct{}]()
				}
				st.indexes[col] = idx.Set(k, set.Set(id, struct{}{}))
			}
		}
	}
}

// unindexRow removes the row from the state's indexes; same contract as
// indexRow.
func (st *tableState) unindexRow(id int64, r Row) {
	for col, idx := range st.uniques {
		if v, ok := r[col]; ok && v != nil {
			if k, ok := encodeKey(v); ok {
				if owner, has := idx.Get(k); has && owner == id {
					st.uniques[col] = idx.Delete(k)
				}
			}
		}
	}
	for col, idx := range st.indexes {
		if v, ok := r[col]; ok && v != nil {
			if k, ok := encodeKey(v); ok {
				if set := idx.GetOr(k, nil); set != nil {
					if next := set.Delete(id); next.Len() == 0 {
						st.indexes[col] = idx.Delete(k)
					} else {
						st.indexes[col] = idx.Set(k, next)
					}
				}
			}
		}
	}
}

// LookupUnique returns a copy of the row whose unique column holds value, or
// nil if absent or the column is not unique.
func (t *Table) LookupUnique(col string, value any) Row {
	st := t.state.Load()
	idx, ok := st.uniques[col]
	if !ok {
		return nil
	}
	k, ok := encodeKey(value)
	if !ok {
		return nil
	}
	id, ok := idx.Get(k)
	if !ok {
		return nil
	}
	r, _ := st.rows.Get(id)
	return r.clone()
}

// UniqueID returns the row id holding value in the unique column, without
// materializing the row. Existence checks and foreign-key resolution on hot
// write paths use it to skip LookupUnique's defensive row copy.
func (t *Table) UniqueID(col string, value any) (int64, bool) {
	st := t.state.Load()
	idx, ok := st.uniques[col]
	if !ok {
		return 0, false
	}
	k, ok := encodeKey(value)
	if !ok {
		return 0, false
	}
	return idx.Get(k)
}

// LookupIndexed returns copies of the rows whose indexed column equals
// value, in id order. A non-indexed column falls back to a scan.
func (t *Table) LookupIndexed(col string, value any) []Row {
	st := t.state.Load()
	if idx, ok := st.indexes[col]; ok {
		k, ok := encodeKey(value)
		if !ok {
			return []Row{}
		}
		set := idx.GetOr(k, nil)
		ids := make([]int64, 0, set.Len())
		set.Range(func(id int64, _ struct{}) bool {
			ids = append(ids, id)
			return true
		})
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		out := make([]Row, 0, len(ids))
		for _, id := range ids {
			r, _ := st.rows.Get(id)
			out = append(out, r.clone())
		}
		return out
	}
	var out []Row
	for _, id := range st.sortedIDs() {
		r, _ := st.rows.Get(id)
		if r[col] == value {
			out = append(out, r.clone())
		}
	}
	return out
}

func (st *tableState) sortedIDs() []int64 {
	ids := make([]int64, 0, st.rows.Len())
	st.rows.Range(func(id int64, _ Row) bool {
		ids = append(ids, id)
		return true
	})
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
