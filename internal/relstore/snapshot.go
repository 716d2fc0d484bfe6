package relstore

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// snapshot is the JSON wire form of a whole store.
type snapshot struct {
	Tables []tableSnapshot `json:"tables"`
	Links  []linkSnapshot  `json:"links"`
}

type tableSnapshot struct {
	Schema Schema           `json:"schema"`
	NextID int64            `json:"next_id"`
	Rows   []map[string]any `json:"rows"`
}

type linkSnapshot struct {
	Name  string     `json:"name"`
	Left  string     `json:"left"`
	Right string     `json:"right"`
	Pairs [][2]int64 `json:"pairs"`
}

// Snapshot serializes the whole store as JSON to w. The encoding is
// deterministic: tables, rows, and link pairs are emitted in sorted order.
func (s *Store) Snapshot(w io.Writer) error {
	s.mu.RLock()
	tableNames := make([]string, 0, len(s.tables))
	for n := range s.tables {
		tableNames = append(tableNames, n)
	}
	linkNames := make([]string, 0, len(s.links))
	for n := range s.links {
		linkNames = append(linkNames, n)
	}
	s.mu.RUnlock()
	sort.Strings(tableNames)
	sort.Strings(linkNames)

	var snap snapshot
	for _, name := range tableNames {
		t := s.Table(name)
		st := t.state.Load()
		ts := tableSnapshot{Schema: t.Schema(), NextID: st.nextID}
		for _, id := range st.sortedIDs() {
			r, _ := st.rows.Get(id)
			ts.Rows = append(ts.Rows, map[string]any(r.clone()))
		}
		snap.Tables = append(snap.Tables, ts)
	}
	for _, name := range linkNames {
		l := s.Link(name)
		snap.Links = append(snap.Links, linkSnapshot{
			Name: l.name, Left: l.left, Right: l.right, Pairs: l.Pairs(),
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(snap)
}

// Restore reads a snapshot produced by Snapshot into a fresh store.
func Restore(r io.Reader) (*Store, error) {
	var snap snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("relstore: decode snapshot: %w", err)
	}
	s := NewStore()
	for _, ts := range snap.Tables {
		t, err := s.CreateTable(ts.Schema)
		if err != nil {
			return nil, err
		}
		rows := make([]Row, len(ts.Rows))
		for i, raw := range ts.Rows {
			row, id, err := rowFromJSON(t, raw)
			if err != nil {
				return nil, err
			}
			row["id"] = id
			rows[i] = row
		}
		if err := t.restoreRows(rows, ts.NextID); err != nil {
			return nil, err
		}
	}
	for _, ls := range snap.Links {
		l, err := s.CreateLink(ls.Name, ls.Left, ls.Right)
		if err != nil {
			return nil, err
		}
		l.AddBatch(ls.Pairs)
	}
	return s, nil
}

// restoreRows installs snapshot rows under their explicit ids in one edit
// session, the way InsertBatch installs fresh ones, and raises the id
// counter to at least nextID (snapshot replay only). A duplicate id, within
// the rows or against the table, refuses the whole set.
func (t *Table) restoreRows(rows []Row, nextID int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.state.Load()
	ns := st.clone()
	ns.install(rows)
	if ns.rows.Len() != st.rows.Len()+len(rows) {
		seen := make(map[int64]bool, len(rows))
		for _, r := range rows {
			id := r.ID()
			if _, taken := st.rows.Get(id); taken || seen[id] {
				return fmt.Errorf("relstore: snapshot: duplicate id %d in %s", id, t.schema.Name)
			}
			seen[id] = true
		}
	}
	ns.nextID = max(ns.nextID, nextID)
	t.state.Store(ns)
	return nil
}

// rowFromJSON converts the generic JSON decoding of a row back into the
// typed representation the table schema demands (JSON numbers arrive as
// float64; lists arrive as []any).
func rowFromJSON(t *Table, raw map[string]any) (Row, int64, error) {
	row := make(Row, len(raw))
	var id int64
	for k, v := range raw {
		if k == "id" {
			f, ok := v.(float64)
			if !ok {
				return nil, 0, fmt.Errorf("relstore: snapshot: bad id %v", v)
			}
			id = int64(f)
			continue
		}
		col, ok := t.byCol[k]
		if !ok {
			return nil, 0, fmt.Errorf("relstore: snapshot: unknown column %q in %s", k, t.schema.Name)
		}
		if v == nil {
			continue
		}
		switch col.Type {
		case Int:
			f, ok := v.(float64)
			if !ok {
				return nil, 0, fmt.Errorf("relstore: snapshot: %s.%s: %T not int", t.schema.Name, k, v)
			}
			row[k] = int64(f)
		case Float:
			f, ok := v.(float64)
			if !ok {
				return nil, 0, fmt.Errorf("relstore: snapshot: %s.%s: %T not float", t.schema.Name, k, v)
			}
			row[k] = f
		case String:
			sv, ok := v.(string)
			if !ok {
				return nil, 0, fmt.Errorf("relstore: snapshot: %s.%s: %T not string", t.schema.Name, k, v)
			}
			row[k] = sv
		case Bool:
			bv, ok := v.(bool)
			if !ok {
				return nil, 0, fmt.Errorf("relstore: snapshot: %s.%s: %T not bool", t.schema.Name, k, v)
			}
			row[k] = bv
		case StringList:
			list, ok := v.([]any)
			if !ok {
				return nil, 0, fmt.Errorf("relstore: snapshot: %s.%s: %T not list", t.schema.Name, k, v)
			}
			ss := make([]string, 0, len(list))
			for _, e := range list {
				es, ok := e.(string)
				if !ok {
					return nil, 0, fmt.Errorf("relstore: snapshot: %s.%s: %T element not string", t.schema.Name, k, e)
				}
				ss = append(ss, es)
			}
			row[k] = ss
		}
	}
	if id == 0 {
		return nil, 0, fmt.Errorf("relstore: snapshot: row without id in %s", t.schema.Name)
	}
	return row, id, nil
}
