package ontology

import (
	"encoding/json"
	"fmt"
)

// document is the JSON wire form of an ontology: the relational list-of-rows
// shape CAR-CS stores in its database (key, parent key, description, type).
type document struct {
	Name  string     `json:"name"`
	Root  string     `json:"root"`
	Nodes []nodeJSON `json:"nodes"`
	Codes []areaCode `json:"area_codes,omitempty"`
}

type nodeJSON struct {
	ID      string   `json:"id"`
	Parent  string   `json:"parent,omitempty"`
	Label   string   `json:"label"`
	Kind    string   `json:"kind"`
	Tier    string   `json:"tier,omitempty"`
	Bloom   string   `json:"bloom,omitempty"`
	Hours   float64  `json:"hours,omitempty"`
	SeeAlso []string `json:"see_also,omitempty"`
}

type areaCode struct {
	ID   string `json:"id"`
	Code string `json:"code"`
}

// MarshalJSON encodes the ontology as a flat node table in document order.
func (o *Ontology) MarshalJSON() ([]byte, error) {
	doc := document{Name: o.name, Root: o.root}
	for _, id := range o.order {
		n := o.nodes[id]
		doc.Nodes = append(doc.Nodes, nodeJSON{
			ID:      n.ID,
			Parent:  n.Parent,
			Label:   n.Label,
			Kind:    n.Kind.String(),
			Tier:    zeroEmpty(n.Tier.String(), TierUnspecified.String()),
			Bloom:   zeroEmpty(n.Bloom.String(), BloomUnspecified.String()),
			Hours:   n.Hours,
			SeeAlso: n.SeeAlso,
		})
	}
	for _, id := range o.order {
		if c, ok := o.areaCodes[id]; ok {
			doc.Codes = append(doc.Codes, areaCode{ID: id, Code: c})
		}
	}
	return json.Marshal(doc)
}

// UnmarshalJSON decodes an ontology from its flat node table, rebuilding the
// adjacency and re-validating every structural invariant.
func (o *Ontology) UnmarshalJSON(data []byte) error {
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	if len(doc.Nodes) == 0 || doc.Nodes[0].ID != doc.Root {
		return fmt.Errorf("ontology json: first node must be the root %q", doc.Root)
	}
	rebuilt := &Ontology{
		name:     doc.Name,
		root:     doc.Root,
		nodes:    make(map[string]*Node, len(doc.Nodes)),
		children: make(map[string][]string),
	}
	for i, nj := range doc.Nodes {
		kind, err := parseKind(nj.Kind)
		if err != nil {
			return fmt.Errorf("node %q: %w", nj.ID, err)
		}
		tier, err := parseTier(nj.Tier)
		if err != nil {
			return fmt.Errorf("node %q: %w", nj.ID, err)
		}
		bloom, err := ParseBloom(nj.Bloom)
		if err != nil {
			return fmt.Errorf("node %q: %w", nj.ID, err)
		}
		n := &Node{
			ID: nj.ID, Parent: nj.Parent, Label: nj.Label,
			Kind: kind, Tier: tier, Bloom: bloom, Hours: nj.Hours,
			SeeAlso: nj.SeeAlso,
		}
		if _, dup := rebuilt.nodes[n.ID]; dup {
			return fmt.Errorf("ontology json: duplicate node %q", n.ID)
		}
		rebuilt.nodes[n.ID] = n
		rebuilt.order = append(rebuilt.order, n.ID)
		if i > 0 {
			rebuilt.children[n.Parent] = append(rebuilt.children[n.Parent], n.ID)
		}
	}
	for _, ac := range doc.Codes {
		if rebuilt.areaCodes == nil {
			rebuilt.areaCodes = make(map[string]string)
		}
		rebuilt.areaCodes[ac.ID] = ac.Code
	}
	if errs := rebuilt.Validate(); len(errs) > 0 {
		return fmt.Errorf("ontology json: %d invalid node(s), first: %w", len(errs), errs[0])
	}
	rebuilt.frozen = true
	*o = *rebuilt
	return nil
}

func zeroEmpty(s, zero string) string {
	if s == zero {
		return ""
	}
	return s
}

func parseKind(s string) (Kind, error) {
	for i, n := range kindNames {
		if s == n {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("unknown kind %q", s)
}

func parseTier(s string) (Tier, error) {
	if s == "" {
		return TierUnspecified, nil
	}
	for i, n := range tierNames {
		if s == n {
			return Tier(i), nil
		}
	}
	return 0, fmt.Errorf("unknown tier %q", s)
}

// ParseBloom inverts Bloom.String: it maps a level name ("know",
// "comprehend", "apply", "unspecified") back to its Bloom, and the empty
// string to BloomUnspecified. It is the one parser of level names; every
// codec that stores levels as text decodes through it.
func ParseBloom(s string) (Bloom, error) {
	if s == "" {
		return BloomUnspecified, nil
	}
	for i, n := range bloomNames {
		if s == n {
			return Bloom(i), nil
		}
	}
	return 0, fmt.Errorf("unknown bloom level %q", s)
}
