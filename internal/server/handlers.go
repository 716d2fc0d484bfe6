package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"carcs/internal/core"
	"carcs/internal/material"
	"carcs/internal/ontology"
	"carcs/internal/search"
	"carcs/internal/workflow"
)

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.view(r).Stats())
}

// GET /api/materials?collection=&kind=&level=&language=&year_from=&year_to=&limit=&offset=
//
// Results are always sorted by material ID, so pagination windows are
// deterministic across calls at the same generation. Without limit/offset
// the full (sorted) list is returned, preserving the original shape; with
// either parameter the response is an envelope carrying the total count.
func (s *Server) handleListMaterials(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	v := s.view(r)
	yearFrom, err := intParam(q, "year_from", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	yearTo, err := intParam(q, "year_to", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var filters []search.Filter
	if c := q.Get("collection"); c != "" {
		filters = append(filters, search.ByCollection(c))
	}
	if k := q.Get("kind"); k != "" {
		filters = append(filters, search.ByKind(material.Kind(k)))
	}
	if l := q.Get("level"); l != "" {
		filters = append(filters, search.ByLevel(material.Level(l)))
	}
	if lang := q.Get("language"); lang != "" {
		filters = append(filters, search.ByLanguage(lang))
	}
	if yearFrom != 0 || yearTo != 0 {
		filters = append(filters, search.ByYearRange(yearFrom, yearTo))
	}
	if entry := q.Get("entry"); entry != "" {
		filters = append(filters, search.HasEntry(entry))
	}
	if subtree := q.Get("subtree"); subtree != "" {
		o := v.OntologyByName(q.Get("ontology"))
		if o == nil {
			writeError(w, http.StatusBadRequest, "subtree filter needs ontology=cs13|pdc12")
			return
		}
		filters = append(filters, search.InSubtree(o, subtree))
	}
	// The canonical filter key memoizes the ID-sorted filtered slice per
	// generation (see View.SortedMaterials): every page of the same
	// listing shares one sort, which is what makes deep cursor pages
	// constant-latency at large corpus sizes.
	filterKey := strings.Join([]string{
		q.Get("collection"), q.Get("kind"), q.Get("level"), q.Get("language"),
		strconv.Itoa(yearFrom), strconv.Itoa(yearTo), q.Get("entry"),
		q.Get("subtree"), q.Get("ontology"),
	}, "\x1f")
	var filter search.Filter
	if len(filters) > 0 {
		filter = search.AllOf(filters...)
	}

	// Keyset pagination: ?after=<id>&limit=N pages forward from the cursor
	// with a binary search, never an offset walk. limit/offset stay
	// accepted for old clients (deprecated); their envelope also carries
	// next_cursor so they can switch mid-flight.
	if q.Has("after") {
		after := q.Get("after")
		limit, err := intParam(q, "limit", defaultPageLimit)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		if limit <= 0 {
			limit = defaultPageLimit
		}
		page, total, next := v.MaterialsPage(filterKey, filter, after, limit)
		streamMaterialEnvelope(w, pageEnvelope{total: total, limit: limit, next: next, hasOffset: false}, page)
		return
	}

	mats := v.SortedMaterials(filterKey, filter)
	if !q.Has("limit") && !q.Has("offset") {
		// Full listing: stream the bare array (original shape) instead of
		// building a []materialJSON copy of the whole corpus.
		streamMaterialArray(w, mats)
		return
	}
	w.Header().Set("Deprecation", "true") // offset pagination; use after=<id>
	total := len(mats)
	offset, err := intParam(q, "offset", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	limit, err := intParam(q, "limit", total)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if offset < 0 || limit < 0 {
		writeError(w, http.StatusBadRequest, "limit and offset must be non-negative")
		return
	}
	if offset > total {
		offset = total
	}
	end := offset + limit
	if end > total || end < 0 { // <0 guards offset+limit overflow
		end = total
	}
	var next string
	if end < total && end > offset {
		next = mats[end-1].ID
	}
	streamMaterialEnvelope(w, pageEnvelope{total: total, limit: limit, offset: offset, hasOffset: true, next: next}, mats[offset:end])
}

// defaultPageLimit is the page size when ?after= is given without a limit.
const defaultPageLimit = 100

// pageEnvelope carries the listing metadata around the streamed page.
type pageEnvelope struct {
	total     int
	limit     int
	offset    int
	hasOffset bool
	next      string
}

// streamMaterialArray writes a material slice as a bare JSON array without
// materializing the encoded document: one small encode per element, so a
// million-row listing costs O(1) extra memory instead of a whole-slice
// marshal. The encoder's trailing newlines are legal JSON whitespace.
func streamMaterialArray(w http.ResponseWriter, mats []*material.Material) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "[")
	enc := json.NewEncoder(w)
	for i, m := range mats {
		if i > 0 {
			io.WriteString(w, ",")
		}
		if enc.Encode(toJSON(m)) != nil {
			return // client went away mid-stream; nothing to salvage
		}
	}
	io.WriteString(w, "]\n")
}

// streamMaterialEnvelope writes a paginated listing envelope with the
// materials array streamed element-by-element. next_cursor is omitted on
// the final page.
func streamMaterialEnvelope(w http.ResponseWriter, env pageEnvelope, page []*material.Material) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, `{"total":%d,"limit":%d`, env.total, env.limit)
	if env.hasOffset {
		fmt.Fprintf(w, `,"offset":%d`, env.offset)
	}
	if env.next != "" {
		fmt.Fprintf(w, `,"next_cursor":%s`, strconv.Quote(env.next))
	}
	io.WriteString(w, `,"materials":[`)
	enc := json.NewEncoder(w)
	for i, m := range page {
		if i > 0 {
			io.WriteString(w, ",")
		}
		if enc.Encode(toJSON(m)) != nil {
			return
		}
	}
	io.WriteString(w, "]}\n")
}

// POST /api/materials
func (s *Server) handleCreateMaterial(w http.ResponseWriter, r *http.Request) {
	var mj materialJSON
	if !decodeBody(w, r, &mj) {
		return
	}
	m := fromJSON(mj)
	if err := s.tenantSys(r).AddMaterial(m); err != nil {
		s.writeMutationError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusCreated, toJSON(m))
}

// POST /api/materials:batch
//
// Accepts {"materials": [...]} and commits them as one batch: one journal
// fsync, one view publish. All-or-nothing — any invalid or duplicate item
// rejects the whole request with a 422 naming the offending index and id, and
// nothing is stored. The body cap is wider than the single-material
// endpoint's, sized for a few thousand records per call.
func (s *Server) handleCreateMaterialBatch(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Materials []materialJSON `json:"materials"`
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBatchBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", mbe.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if len(body.Materials) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch: materials is required")
		return
	}
	ms := make([]*material.Material, len(body.Materials))
	for i, mj := range body.Materials {
		ms[i] = fromJSON(mj)
	}
	if err := s.tenantSys(r).AddMaterials(ms); err != nil {
		var bie *core.BatchItemError
		if errors.As(err, &bie) {
			writeJSON(w, http.StatusUnprocessableEntity, map[string]any{
				"error": err.Error(),
				"index": bie.Index,
				"id":    bie.ID,
			})
			return
		}
		s.writeMutationError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"added": len(ms)})
}

// GET /api/materials/{id}
func (s *Server) handleGetMaterial(w http.ResponseWriter, r *http.Request) {
	m := s.view(r).Material(r.PathValue("id"))
	if m == nil {
		writeError(w, http.StatusNotFound, "no such material")
		return
	}
	writeJSON(w, http.StatusOK, toJSON(m))
}

// DELETE /api/materials/{id}
func (s *Server) handleDeleteMaterial(w http.ResponseWriter, r *http.Request) {
	if err := s.tenantSys(r).RemoveMaterial(r.PathValue("id")); err != nil {
		s.writeMutationError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": r.PathValue("id")})
}

// PUT /api/materials/{id}/classifications
func (s *Server) handleReclassify(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Classifications []string `json:"classifications"`
	}
	if !decodeBody(w, r, &body) {
		return
	}
	cls := make([]material.Classification, 0, len(body.Classifications))
	for _, c := range body.Classifications {
		cls = append(cls, material.Classification{NodeID: c})
	}
	if err := s.tenantSys(r).Reclassify(r.PathValue("id"), cls); err != nil {
		s.writeMutationError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, toJSON(s.tenantSys(r).View().Material(r.PathValue("id"))))
}

// GET /api/materials/{id}/replacements?k=
func (s *Server) handleReplacements(w http.ResponseWriter, r *http.Request) {
	k, err := intParam(r.URL.Query(), "k", 10)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	edges, err := s.view(r).PDCReplacements(r.PathValue("id"), k)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, edges)
}

// GET /api/ontologies
func (s *Server) handleOntologies(w http.ResponseWriter, r *http.Request) {
	type ont struct {
		Name    string `json:"name"`
		Display string `json:"display"`
		Entries int    `json:"entries"`
	}
	writeJSON(w, http.StatusOK, []ont{
		{Name: "cs13", Display: s.sys.CS13().Name(), Entries: s.sys.CS13().Len()},
		{Name: "pdc12", Display: s.sys.PDC12().Name(), Entries: s.sys.PDC12().Len()},
	})
}

// GET /api/ontologies/{name}/search?q=&k=  — the Fig. 1b entry-locating
// search, with highlight markers.
func (s *Server) handleOntologySearch(w http.ResponseWriter, r *http.Request) {
	o := s.sys.OntologyByName(r.PathValue("name"))
	if o == nil {
		writeError(w, http.StatusNotFound, "unknown ontology")
		return
	}
	q := r.URL.Query().Get("q")
	if q == "" {
		writeError(w, http.StatusBadRequest, "missing q")
		return
	}
	k, err := intParam(r.URL.Query(), "k", 20)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	type hit struct {
		ID          string  `json:"id"`
		Path        string  `json:"path"`
		Highlighted string  `json:"highlighted"`
		Score       float64 `json:"score"`
	}
	var out []hit
	for _, m := range o.Search(o.RootID(), q) {
		if !m.Node.Kind.Classifiable() {
			continue
		}
		out = append(out, hit{
			ID:          m.Node.ID,
			Path:        o.Path(m.Node.ID),
			Highlighted: highlightMark(m.Node.Label, m),
			Score:       m.Score,
		})
		if len(out) >= k {
			break
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// GET /api/ontologies/{name}/node/{id...}
func (s *Server) handleOntologyNode(w http.ResponseWriter, r *http.Request) {
	o := s.sys.OntologyByName(r.PathValue("name"))
	if o == nil {
		writeError(w, http.StatusNotFound, "unknown ontology")
		return
	}
	id := r.PathValue("id")
	n := o.Node(id)
	if n == nil {
		writeError(w, http.StatusNotFound, "unknown node")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":       n.ID,
		"label":    n.Label,
		"kind":     n.Kind.String(),
		"tier":     n.Tier.String(),
		"bloom":    n.Bloom.String(),
		"path":     o.Path(id),
		"children": o.Children(id),
	})
}

// GET /api/coverage?ontology=&collection=
func (s *Server) handleCoverage(w http.ResponseWriter, r *http.Request) {
	rep, err := s.view(r).CoverageCtx(r.Context(), r.URL.Query().Get("ontology"), r.URL.Query().Get("collection"))
	if err != nil {
		writeReadError(w, err)
		return
	}
	cov, tot := rep.CoveredEntries(rep.Ontology.RootID())
	writeJSON(w, http.StatusOK, map[string]any{
		"collection":      rep.Collection,
		"ontology":        rep.Ontology.Name(),
		"materials":       rep.Materials,
		"covered_entries": cov,
		"total_entries":   tot,
		"areas":           rep.AreaRanking(),
		"untouched":       rep.UncoveredAreas(),
		"hours":           rep.Hours(rep.Ontology.RootID()),
	})
}

// GET /api/gaps?ontology=&collection=&core_only=
func (s *Server) handleGaps(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	gaps, err := s.view(r).GapReport(r.Context(), q.Get("ontology"), q.Get("collection"), q.Get("core_only") == "true")
	if err != nil {
		writeReadError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, gaps)
}

// GET /api/similarity?left=&right=&threshold=
func (s *Server) handleSimilarity(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	left, right := q.Get("left"), q.Get("right")
	if left == "" || right == "" {
		writeError(w, http.StatusBadRequest, "need left= and right= collections")
		return
	}
	threshold, err := intParam(q, "threshold", 2)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	g, err := s.view(r).SimilarityGraph(r.Context(), left, right, threshold)
	if err != nil {
		writeReadError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"nodes":           len(g.Nodes),
		"edges":           g.Edges,
		"isolated":        g.Isolated(),
		"isolation_ratio": g.IsolationRatio(),
		"clusters":        g.Components(2),
	})
}

// GET /api/search?q=&k=&collection=
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		writeError(w, http.StatusBadRequest, "missing q")
		return
	}
	k, err := intParam(r.URL.Query(), "k", 10)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var filters []search.Filter
	if c := r.URL.Query().Get("collection"); c != "" {
		filters = append(filters, search.ByCollection(c))
	}
	hits, didYouMean := s.view(r).SearchText(q, k, filters...)
	type hit struct {
		Material materialJSON `json:"material"`
		Score    float64      `json:"score"`
	}
	out := make([]hit, 0, len(hits))
	for _, h := range hits {
		out = append(out, hit{Material: toJSON(h.Material), Score: h.Score})
	}
	if didYouMean != "" {
		writeJSON(w, http.StatusOK, map[string]any{"did_you_mean": didYouMean, "hits": out})
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// GET /api/query?q=&k= — the structured query language
// ("collection:nifty level:CS1 arrays", see search.ParseQuery).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		writeError(w, http.StatusBadRequest, "missing q")
		return
	}
	k, err := intParam(r.URL.Query(), "k", 20)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	hits, err := s.view(r).SearchQuery(q, k)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	type hit struct {
		Material materialJSON `json:"material"`
		Score    float64      `json:"score"`
	}
	out := make([]hit, 0, len(hits))
	for _, h := range hits {
		out = append(out, hit{Material: toJSON(h.Material), Score: h.Score})
	}
	writeJSON(w, http.StatusOK, out)
}

// GET /api/suggest?ontology=&method=&q=&k=
func (s *Server) handleSuggest(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if q.Get("q") == "" {
		writeError(w, http.StatusBadRequest, "missing q")
		return
	}
	k, err := intParam(q, "k", 10)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	sugg, err := s.view(r).Suggest(r.Context(), q.Get("method"), q.Get("ontology"), q.Get("q"), k)
	if err != nil {
		writeReadError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sugg)
}

// GET /api/recommend?selected=a,b,c&k=
func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	selected := splitCSV(r.URL.Query().Get("selected"))
	if len(selected) == 0 {
		writeError(w, http.StatusBadRequest, "missing selected=")
		return
	}
	k, err := intParam(r.URL.Query(), "k", 10)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, s.view(r).Recommend(selected, k))
}

// POST /api/accounts {"name": ..., "role": "user|submitter|editor"}
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Name string `json:"name"`
		Role string `json:"role"`
	}
	if !decodeBody(w, r, &body) {
		return
	}
	if body.Name == "" {
		writeError(w, http.StatusBadRequest, "missing name")
		return
	}
	var role workflow.Role
	switch body.Role {
	case "", "user":
		role = workflow.RoleUser
	case "submitter":
		role = workflow.RoleSubmitter
	case "editor":
		role = workflow.RoleEditor
	default:
		writeError(w, http.StatusBadRequest, "unknown role")
		return
	}
	acct, err := s.tenantSys(r).Workflow().Register(body.Name, role)
	if err != nil {
		// Registration only fails when the journal refused the write;
		// writeMutationError adds the Retry-After the old path lacked.
		s.writeMutationError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"name": acct.Name, "role": acct.Role.String()})
}

// POST /api/submissions — body is a material; queued for editorial review.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var mj materialJSON
	if !decodeBody(w, r, &mj) {
		return
	}
	sub, err := s.tenantSys(r).Workflow().Submit(r.Header.Get("X-User"), fromJSON(mj))
	if err != nil {
		s.writeMutationError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"id": sub.ID, "status": sub.Status})
}

// GET /api/submissions — the editor's pending queue.
func (s *Server) handlePendingSubmissions(w http.ResponseWriter, r *http.Request) {
	type subJSON struct {
		ID        int64        `json:"id"`
		Submitter string       `json:"submitter"`
		Material  materialJSON `json:"material"`
	}
	pend := s.tenantSys(r).Workflow().Pending()
	out := make([]subJSON, 0, len(pend))
	for _, sub := range pend {
		out = append(out, subJSON{ID: sub.ID, Submitter: sub.Submitter, Material: toJSON(sub.Material)})
	}
	writeJSON(w, http.StatusOK, out)
}

// POST /api/submissions/{id}/review {"decision": "approved", "note": ""}
// Approval also installs the material into the repository.
func (s *Server) handleReview(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad submission id")
		return
	}
	var body struct {
		Decision string `json:"decision"`
		Note     string `json:"note"`
	}
	if !decodeBody(w, r, &body) {
		return
	}
	wf := s.tenantSys(r).Workflow()
	var sub *workflow.Submission
	for _, p := range wf.Pending() {
		if p.ID == id {
			sub = p
			break
		}
	}
	if err := wf.Review(r.Header.Get("X-User"), id, workflow.Status(body.Decision), body.Note); err != nil {
		s.writeMutationError(w, http.StatusUnprocessableEntity, err)
		return
	}
	if workflow.Status(body.Decision) == workflow.StatusApproved && sub != nil {
		if err := s.tenantSys(r).AddMaterial(sub.Material); err != nil {
			s.writeMutationError(w, http.StatusUnprocessableEntity, err)
			return
		}
	}
	// Every accept/reject verdict is a labeled example: feed it to the
	// learned classifier as an online update. The review itself has already
	// committed, so a failed update (journal degraded mid-request) is logged
	// rather than failing the response — the verdict is durable either way.
	if sub != nil {
		switch workflow.Status(body.Decision) {
		case workflow.StatusApproved, workflow.StatusRejected:
			accepted := workflow.Status(body.Decision) == workflow.StatusApproved
			if err := s.tenantSys(r).LearnFromReview(sub.Material, accepted); err != nil {
				s.log.Printf("learn from review %d: %v", id, err)
			}
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "status": body.Decision})
}

// highlightMark renders the matched label with <mark> tags, the form the
// dynamic web page consumes (Fig. 1b: "entries can be searched for by
// entering a word or phrase that becomes highlighted").
func highlightMark(label string, m ontology.Match) string {
	return ontology.Highlight(label, m.Spans, "<mark>", "</mark>")
}

// GET /api/depth?ontology=&collection= — the Bloom-level depth report
// (the Sec. IV-A proposed extension).
func (s *Server) handleDepth(w http.ResponseWriter, r *http.Request) {
	rep, err := s.view(r).DepthReport(r.URL.Query().Get("ontology"), r.URL.Query().Get("collection"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "unknown ontology")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"met":             rep.Met,
		"shallow":         rep.Shallow,
		"unrated":         rep.Unrated,
		"rated_fraction":  rep.RatedFraction(),
		"shallow_entries": rep.ShallowEntries(),
	})
}

// GET /api/snapshot — download the relational state as JSON.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="carcs-snapshot.json"`)
	if err := s.view(r).Snapshot(w); err != nil {
		s.log.Printf("snapshot: %v", err)
	}
}

// POST /api/edits {"material": ..., "field": ..., "old": ..., "new": ...}
func (s *Server) handleSuggestEdit(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Material string `json:"material"`
		Field    string `json:"field"`
		Old      string `json:"old"`
		New      string `json:"new"`
	}
	if !decodeBody(w, r, &body) {
		return
	}
	if body.Material == "" || body.Field == "" {
		writeError(w, http.StatusBadRequest, "missing material or field")
		return
	}
	if s.tenantSys(r).View().Material(body.Material) == nil {
		writeError(w, http.StatusNotFound, "no such material")
		return
	}
	e, err := s.tenantSys(r).Workflow().SuggestEdit(r.Header.Get("X-User"), body.Material, body.Field, body.Old, body.New)
	if err != nil {
		s.writeMutationError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusCreated, e)
}

// GET /api/edits — the editor's unverified-edit queue.
func (s *Server) handleUnverifiedEdits(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.tenantSys(r).Workflow().UnverifiedEdits())
}

// POST /api/edits/{id}/verify {"accept": true}
func (s *Server) handleVerifyEdit(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad edit id")
		return
	}
	var body struct {
		Accept bool `json:"accept"`
	}
	if !decodeBody(w, r, &body) {
		return
	}
	if err := s.tenantSys(r).Workflow().VerifyEdit(r.Header.Get("X-User"), id, body.Accept); err != nil {
		s.writeMutationError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "accepted": body.Accept})
}
