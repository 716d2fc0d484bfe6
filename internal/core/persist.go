package core

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"carcs/internal/material"
	"carcs/internal/ontology"
	"carcs/internal/relstore"
)

// Restore rebuilds a System from a Snapshot stream: the relational state is
// restored, each stored material is reassembled from its row and
// classification links and validated, and the whole set then builds into a
// fresh System through the batch path — one builder session per container
// and one view publish, the cost of one AddMaterials call. Checkpoint
// recovery restores every workspace through it.
func Restore(r io.Reader) (*System, error) {
	store, err := relstore.Restore(r)
	if err != nil {
		return nil, err
	}
	s, err := New()
	if err != nil {
		return nil, err
	}
	mt := store.Table("materials")
	et := store.Table("entries")
	lk := store.Link("material_classifications")
	if mt == nil || et == nil || lk == nil {
		return nil, fmt.Errorf("core: snapshot missing CAR-CS tables")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var adds addStretch
	for _, row := range mt.Select(relstore.Query{}) {
		m, levels, err := materialFromRow(row)
		if err != nil {
			return nil, fmt.Errorf("core: restoring %q: %w", m.ID, err)
		}
		for _, entryRowID := range lk.Rights(row.ID()) {
			er := et.Get(entryRowID)
			if er == nil {
				return nil, fmt.Errorf("core: dangling entry link %d for %q", entryRowID, m.ID)
			}
			node, _ := er["node"].(string)
			m.Classifications = append(m.Classifications, material.Classification{NodeID: node, Bloom: levels[node]})
		}
		if err := adds.add(s, m); err != nil {
			return nil, fmt.Errorf("core: restoring %q: %w", m.ID, err)
		}
	}
	if err := adds.flush(s); err != nil {
		return nil, err
	}
	s.publishLocked()
	return s, nil
}

// materialFromRow reassembles a material's metadata from its row, and the
// Bloom levels of its rated classifications from the row's blooms column.
// Rows written before the column existed carry no levels.
func materialFromRow(row relstore.Row) (*material.Material, map[string]ontology.Bloom, error) {
	str := func(k string) string { v, _ := row[k].(string); return v }
	list := func(k string) []string { v, _ := row[k].([]string); return v }
	year, _ := row["year"].(int64)
	m := &material.Material{
		ID:          str("slug"),
		Title:       str("title"),
		Kind:        material.Kind(str("kind")),
		Level:       material.Level(str("level")),
		Language:    str("language"),
		Collection:  str("collection"),
		URL:         str("url"),
		Description: str("description"),
		Year:        int(year),
		Authors:     list("authors"),
		Datasets:    list("datasets"),
		Tags:        list("tags"),
	}
	var levels map[string]ontology.Bloom
	for _, e := range list("blooms") {
		i := strings.LastIndexByte(e, '=')
		level, err := ontology.ParseBloom(e[i+1:])
		if i < 0 || err != nil || level == ontology.BloomUnspecified {
			return m, nil, fmt.Errorf("bad Bloom entry %q", e)
		}
		if levels == nil {
			levels = make(map[string]ontology.Bloom)
		}
		levels[e[:i]] = level
	}
	return m, levels, nil
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
