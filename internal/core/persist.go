package core

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"carcs/internal/material"
	"carcs/internal/ontology"
)

// Restore rebuilds a System from a Snapshot stream: the relational form
// decodes into materials, which build into a fresh System as one add
// stretch — validated and deduplicated like replayed adds, one builder
// session per container and one view publish, the cost of one
// AddMaterials call. Checkpoint recovery restores every workspace through
// it.
func Restore(r io.Reader) (*System, error) {
	ms, err := decodeStore(r)
	if err != nil {
		return nil, err
	}
	s, err := New()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var adds addStretch
	for _, m := range ms {
		if err := adds.add(s, m); err != nil {
			return nil, fmt.Errorf("core: restoring %q: %w", m.ID, err)
		}
	}
	adds.flush(s)
	s.publishLocked()
	return s, nil
}

// A checkpoint stores each workspace's materials in the paper's relational
// model (Sec. III): a materials table, a classification-entries table, and
// the many-to-many link between them. The System keeps no such tables: the
// encoder writes them from a View's materials, numbering rows as it goes,
// and the decoder reads them back into materials. The layout is the one the
// project has always written, schema block included, so checkpoints move
// freely between builds.

// columnType is a column's type code in the checkpoint schema.
type columnType int

const (
	columnString     columnType = 0
	columnInt        columnType = 1
	columnStringList columnType = 4
)

// column and tableSchema are the schema block written ahead of each
// table's rows. The flags describe the unique and secondary indexes of the
// relational design; decoders ignore them.
type column struct {
	Name    string
	Type    columnType
	Unique  bool
	Indexed bool
}

type tableSchema struct {
	Name    string
	Columns []column
}

var materialsSchema = tableSchema{Name: "materials", Columns: []column{
	{Name: "slug", Type: columnString, Unique: true},
	{Name: "title", Type: columnString},
	{Name: "kind", Type: columnString, Indexed: true},
	{Name: "level", Type: columnString, Indexed: true},
	{Name: "language", Type: columnString, Indexed: true},
	{Name: "collection", Type: columnString, Indexed: true},
	{Name: "url", Type: columnString},
	{Name: "description", Type: columnString},
	{Name: "year", Type: columnInt, Indexed: true},
	{Name: "authors", Type: columnStringList},
	{Name: "datasets", Type: columnStringList},
	{Name: "tags", Type: columnStringList},
	// blooms holds the Bloom levels of a material's rated classifications
	// as sorted node=level entries, absent when none is rated. Checkpoints
	// written before it existed do not declare it.
	{Name: "blooms", Type: columnStringList},
}}

var entriesSchema = tableSchema{Name: "entries", Columns: []column{
	{Name: "node", Type: columnString, Unique: true},
	{Name: "bloom", Type: columnString},
}}

const classificationLink = "material_classifications"

// checkpointStore is the wire form of one workspace's materials; T is the
// table type, checkpointTable over a typed row slice when encoding and over
// the raw rows when decoding.
type checkpointStore[T any] struct {
	Tables []T              `json:"tables"`
	Links  []checkpointLink `json:"links"`
}

type checkpointTable[R any] struct {
	Schema tableSchema `json:"schema"`
	NextID int64       `json:"next_id"`
	Rows   R           `json:"rows"`
}

// checkpointLink lists the linked (material id, entry id) pairs, sorted.
type checkpointLink struct {
	Name  string     `json:"name"`
	Left  string     `json:"left"`
	Right string     `json:"right"`
	Pairs [][2]int64 `json:"pairs"`
}

// materialRow and entryRow declare their columns in key order, the order
// the rows have always been written in.
type materialRow struct {
	Authors     []string `json:"authors"`
	Blooms      []string `json:"blooms,omitempty"`
	Collection  string   `json:"collection"`
	Datasets    []string `json:"datasets"`
	Description string   `json:"description"`
	ID          int64    `json:"id"`
	Kind        string   `json:"kind"`
	Language    string   `json:"language"`
	Level       string   `json:"level"`
	Slug        string   `json:"slug"`
	Tags        []string `json:"tags"`
	Title       string   `json:"title"`
	URL         string   `json:"url"`
	Year        int64    `json:"year"`
}

type entryRow struct {
	Bloom string `json:"bloom"`
	ID    int64  `json:"id"`
	Node  string `json:"node"`
}

// encodeStore writes ms, a View's materials in insertion order, as the
// checkpoint's relational form. Materials get row ids 1..n in that order;
// entries get ids in order of first use, walking each material's
// classifications in stored order, and carry the Bloom level of that first
// use. This is the numbering a restore and sequential adds produce, so a
// live System writes the bytes it would write after a restart.
func encodeStore(w io.Writer, ms []*material.Material) error {
	mats := checkpointTable[[]materialRow]{Schema: materialsSchema, NextID: int64(len(ms))}
	entries := checkpointTable[[]entryRow]{Schema: entriesSchema}
	link := checkpointLink{Name: classificationLink, Left: "materials", Right: "entries"}
	// An empty table's rows, like an empty link's pairs, are written as null.
	if len(ms) > 0 {
		mats.Rows = make([]materialRow, len(ms))
	}
	entryIDs := make(map[string]int64)
	for i, m := range ms {
		id := int64(i + 1)
		mats.Rows[i] = materialRow{
			Authors:     nonNil(m.Authors),
			Blooms:      bloomColumn(m),
			Collection:  m.Collection,
			Datasets:    nonNil(m.Datasets),
			Description: m.Description,
			ID:          id,
			Kind:        string(m.Kind),
			Language:    m.Language,
			Level:       string(m.Level),
			Slug:        m.ID,
			Tags:        nonNil(m.Tags),
			Title:       m.Title,
			URL:         m.URL,
			Year:        int64(m.Year),
		}
		first := len(link.Pairs)
		for _, cl := range m.Classifications {
			e, ok := entryIDs[cl.NodeID]
			if !ok {
				e = int64(len(entries.Rows) + 1)
				entryIDs[cl.NodeID] = e
				entries.Rows = append(entries.Rows, entryRow{Bloom: cl.Bloom.String(), ID: e, Node: cl.NodeID})
			}
			link.Pairs = append(link.Pairs, [2]int64{id, e})
		}
		slices.SortFunc(link.Pairs[first:], func(a, b [2]int64) int { return cmp.Compare(a[1], b[1]) })
	}
	entries.NextID = int64(len(entries.Rows))
	return json.NewEncoder(w).Encode(checkpointStore[any]{
		Tables: []any{entries, mats},
		Links:  []checkpointLink{link},
	})
}

// nonNil returns s, or an empty list for nil: list columns are written as
// [] rather than null.
func nonNil(s []string) []string {
	if s == nil {
		return []string{}
	}
	return s
}

// nilIfEmpty undoes nonNil: a restored material holds nil for an empty
// list, as a live-added one does.
func nilIfEmpty(s []string) []string {
	if len(s) == 0 {
		return nil
	}
	return s
}

// bloomColumn encodes a material's rated classifications as the blooms
// column of its row: sorted node=level entries, or nil when no
// classification is rated, so unrated rows keep the bytes they had before
// the column existed.
func bloomColumn(m *material.Material) []string {
	var out []string
	for _, cl := range m.Classifications {
		if cl.Bloom != ontology.BloomUnspecified {
			out = append(out, cl.NodeID+"="+cl.Bloom.String())
		}
	}
	sort.Strings(out)
	return out
}

// decodeStore reads a checkpoint's relational form back into materials, in
// row-id order, each carrying its linked classifications in entry-id order
// with the Bloom levels of its blooms column. It refuses a malformed store
// — a missing or unknown table, a row without an id or with a duplicate
// one, a column the table's schema does not declare or a value of the
// wrong type, a link to a missing entry — but leaves validating the
// materials themselves to the build that follows.
func decodeStore(r io.Reader) ([]*material.Material, error) {
	var doc checkpointStore[checkpointTable[json.RawMessage]]
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("core: decode snapshot: %w", err)
	}
	var (
		mrows   []materialRow
		erows   []entryRow
		pairs   [][2]int64
		present = make(map[string]bool)
	)
	for _, t := range doc.Tables {
		var err error
		switch t.Schema.Name {
		case materialsSchema.Name:
			var declared map[string]bool
			if declared, err = decodeRows(t, materialsSchema, &mrows); err == nil && !declared["blooms"] &&
				slices.ContainsFunc(mrows, func(r materialRow) bool { return r.Blooms != nil }) {
				err = fmt.Errorf("core: snapshot: unknown column %q in %s", "blooms", materialsSchema.Name)
			}
		case entriesSchema.Name:
			_, err = decodeRows(t, entriesSchema, &erows)
		default:
			err = fmt.Errorf("core: snapshot: table %q is not in the CAR-CS schema", t.Schema.Name)
		}
		if err == nil && present[t.Schema.Name] {
			err = fmt.Errorf("core: snapshot: table %q appears twice", t.Schema.Name)
		}
		if err != nil {
			return nil, err
		}
		present[t.Schema.Name] = true
	}
	for _, l := range doc.Links {
		if l.Name != classificationLink || present[l.Name] {
			return nil, fmt.Errorf("core: snapshot: unexpected link table %q", l.Name)
		}
		present[l.Name] = true
		pairs = l.Pairs
	}
	if !present[materialsSchema.Name] || !present[entriesSchema.Name] || !present[classificationLink] {
		return nil, fmt.Errorf("core: snapshot missing CAR-CS tables")
	}

	nodes := make(map[int64]string, len(erows))
	seenNode := make(map[string]bool, len(erows))
	for _, e := range erows {
		if err := checkRowID(e.ID, nodes, entriesSchema.Name); err != nil {
			return nil, err
		}
		if seenNode[e.Node] {
			return nil, fmt.Errorf("core: snapshot: duplicate entry node %q", e.Node)
		}
		seenNode[e.Node] = true
		nodes[e.ID] = e.Node
	}
	slices.SortFunc(mrows, func(a, b materialRow) int { return cmp.Compare(a.ID, b.ID) })
	ms := make([]*material.Material, len(mrows))
	levels := make([]map[string]ontology.Bloom, len(mrows))
	index := make(map[int64]int, len(mrows))
	for i := range mrows {
		row := &mrows[i]
		if err := checkRowID(row.ID, index, materialsSchema.Name); err != nil {
			return nil, err
		}
		index[row.ID] = i
		ms[i] = &material.Material{
			ID:          row.Slug,
			Title:       row.Title,
			Kind:        material.Kind(row.Kind),
			Level:       material.Level(row.Level),
			Language:    row.Language,
			Collection:  row.Collection,
			URL:         row.URL,
			Description: row.Description,
			Year:        int(row.Year),
			Authors:     nilIfEmpty(row.Authors),
			Datasets:    nilIfEmpty(row.Datasets),
			Tags:        nilIfEmpty(row.Tags),
		}
		var err error
		if levels[i], err = parseBlooms(row.Blooms); err != nil {
			return nil, fmt.Errorf("core: restoring %q: %w", row.Slug, err)
		}
	}
	// Pairs are a set: sorted, duplicates collapse. Pairs naming no stored
	// material are ignored, as the relational join never reached them.
	slices.SortFunc(pairs, func(a, b [2]int64) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	for i, p := range pairs {
		mi, ok := index[p[0]]
		if !ok || (i > 0 && p == pairs[i-1]) {
			continue
		}
		node, ok := nodes[p[1]]
		if !ok {
			return nil, fmt.Errorf("core: dangling entry link %d for %q", p[1], ms[mi].ID)
		}
		ms[mi].Classifications = append(ms[mi].Classifications, material.Classification{NodeID: node, Bloom: levels[mi][node]})
	}
	return ms, nil
}

// decodeRows checks a table's declared schema against the one this build
// knows — every column of it but the optional blooms, each with its type,
// nothing else — and decodes its rows into dst, refusing any column this
// build does not know. It returns the declared columns.
func decodeRows[R any](t checkpointTable[json.RawMessage], known tableSchema, dst *[]R) (map[string]bool, error) {
	declared := make(map[string]bool, len(t.Schema.Columns))
	for _, c := range t.Schema.Columns {
		i := slices.IndexFunc(known.Columns, func(k column) bool { return k.Name == c.Name })
		switch {
		case i < 0:
			return nil, fmt.Errorf("core: snapshot: unknown column %q in %s", c.Name, known.Name)
		case known.Columns[i].Type != c.Type:
			return nil, fmt.Errorf("core: snapshot: %s.%s declared with type %d, want %d", known.Name, c.Name, c.Type, known.Columns[i].Type)
		case declared[c.Name]:
			return nil, fmt.Errorf("core: snapshot: %s declares column %q twice", known.Name, c.Name)
		}
		declared[c.Name] = true
	}
	for _, c := range known.Columns {
		if !declared[c.Name] && c.Name != "blooms" {
			return nil, fmt.Errorf("core: snapshot: %s does not declare column %q", known.Name, c.Name)
		}
	}
	if len(t.Rows) > 0 {
		dec := json.NewDecoder(bytes.NewReader(t.Rows))
		dec.DisallowUnknownFields()
		if err := dec.Decode(dst); err != nil {
			return nil, fmt.Errorf("core: snapshot: %s rows: %w", known.Name, err)
		}
	}
	return declared, nil
}

// checkRowID refuses a zero row id or one already in seen.
func checkRowID[V any](id int64, seen map[int64]V, table string) error {
	if id == 0 {
		return fmt.Errorf("core: snapshot: row without id in %s", table)
	}
	if _, dup := seen[id]; dup {
		return fmt.Errorf("core: snapshot: duplicate id %d in %s", id, table)
	}
	return nil
}

// parseBlooms reads a blooms column back into node -> level.
func parseBlooms(blooms []string) (map[string]ontology.Bloom, error) {
	var levels map[string]ontology.Bloom
	for _, e := range blooms {
		i := strings.LastIndexByte(e, '=')
		level, err := ontology.ParseBloom(e[i+1:])
		if i < 0 || err != nil || level == ontology.BloomUnspecified {
			return nil, fmt.Errorf("bad Bloom entry %q", e)
		}
		if levels == nil {
			levels = make(map[string]ontology.Bloom)
		}
		levels[e[:i]] = level
	}
	return levels, nil
}
