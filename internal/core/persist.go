package core

import (
	"fmt"
	"io"

	"carcs/internal/material"
	"carcs/internal/relstore"
)

// Restore rebuilds a System from a Snapshot stream: the relational state is
// restored, then a fresh System replays the materials and classification
// links it records, rebuilding the search index and the models. Checkpoint
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
	for _, row := range mt.Select(relstore.Query{}) {
		m := materialFromRow(row)
		for _, entryRowID := range lk.Rights(row.ID()) {
			er := et.Get(entryRowID)
			if er == nil {
				return nil, fmt.Errorf("core: dangling entry link %d for %q", entryRowID, m.ID)
			}
			node, _ := er["node"].(string)
			m.Classifications = append(m.Classifications, material.Classification{NodeID: node})
		}
		if err := s.AddMaterial(m); err != nil {
			return nil, fmt.Errorf("core: restoring %q: %w", m.ID, err)
		}
	}
	return s, nil
}

func materialFromRow(row relstore.Row) *material.Material {
	str := func(k string) string { v, _ := row[k].(string); return v }
	list := func(k string) []string { v, _ := row[k].([]string); return v }
	year, _ := row["year"].(int64)
	return &material.Material{
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
}
