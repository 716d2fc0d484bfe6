package server

import (
	"html/template"
	"net/http"
	"strconv"
	"strings"

	"carcs/internal/cache"
	"carcs/internal/search"
	"carcs/internal/viz"
)

// The HTML front end: the original prototype "serves webpages to provide
// the main interaction with the service" (Sec. III-B); these handlers are
// the server-rendered equivalent, embedding the SVG renderings where the
// prototype used D3.

var pageTmpl = template.Must(template.New("page").Parse(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>{{.Title}} — CAR-CS</title>
<style>
body { font-family: sans-serif; margin: 2em; max-width: 70em; }
nav a { margin-right: 1em; }
table { border-collapse: collapse; }
td, th { border: 1px solid #ccc; padding: 4px 8px; text-align: left; }
mark { background: #ffe08a; }
.score { color: #666; }
</style></head><body>
<nav><a href="/">home</a><a href="/materials">materials</a><a href="/coverage">coverage</a><a href="/similarity">similarity</a></nav>
<h1>{{.Title}}</h1>
{{.Body}}
</body></html>
`))

type page struct {
	Title string
	Body  template.HTML
}

func (s *Server) renderPage(w http.ResponseWriter, title string, body template.HTML) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := pageTmpl.Execute(w, page{Title: title, Body: body}); err != nil {
		s.log.Printf("render: %v", err)
	}
}

var homeTmpl = template.Must(template.New("home").Parse(`
<p>CAR-CS classifies pedagogical materials against the CS2013 and
NSF/IEEE-TCPP PDC 2012 curriculum guidelines.</p>
<table>
<tr><th>materials</th><td>{{.Materials}}</td></tr>
<tr><th>collections</th><td>{{range .Collections}}{{.}} {{end}}</td></tr>
<tr><th>classification entries in use</th><td>{{.Entries}}</td></tr>
<tr><th>CS13 ontology</th><td>{{.CS13Size}} entries</td></tr>
<tr><th>PDC12 ontology</th><td>{{.PDC12Size}} entries</td></tr>
</table>
<p>Try <a href="/materials?q=collection%3Apeachy">the Peachy assignments</a>,
the <a href="/coverage?ontology=pdc12&collection=itcs3145">ITCS 3145 PDC12 coverage tree</a>,
or the <a href="/similarity?left=nifty&right=peachy">Nifty–Peachy similarity graph</a>.</p>
`))

func (s *Server) handleHome(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	if err := homeTmpl.Execute(&b, s.view(r).Stats()); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.renderPage(w, "Compelling Assignment Repository for CS", template.HTML(b.String())) //nolint:gosec // template-produced
}

var materialsTmpl = template.Must(template.New("materials").Parse(`
<form method="get"><input name="q" size="60" value="{{.Query}}"
 placeholder='e.g. collection:nifty level:CS1 in:cs13/sdf arrays'>
<button>search</button></form>
{{if .Err}}<p style="color:#a00">{{.Err}}</p>{{end}}
<table><tr><th></th><th>title</th><th>kind</th><th>level</th><th>year</th><th>collection</th></tr>
{{range .Hits}}<tr>
<td class="score">{{printf "%.2f" .Score}}</td>
<td><a href="/materials/{{.Material.ID}}">{{.Material.Title}}</a></td>
<td>{{.Material.Kind}}</td><td>{{.Material.Level}}</td>
<td>{{.Material.Year}}</td><td>{{.Material.Collection}}</td>
</tr>{{end}}</table>
`))

func (s *Server) handleMaterialsPage(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	v := s.view(r)
	var hits []search.Hit
	var errMsg string
	if q == "" {
		for _, m := range v.Materials("") {
			hits = append(hits, search.Hit{Material: m})
		}
	} else {
		var err error
		hits, err = v.SearchQuery(q, 200)
		if err != nil {
			errMsg = err.Error()
		}
	}
	var b strings.Builder
	data := struct {
		Query string
		Err   string
		Hits  []search.Hit
	}{Query: q, Err: errMsg, Hits: hits}
	if err := materialsTmpl.Execute(&b, data); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.renderPage(w, "Materials", template.HTML(b.String())) //nolint:gosec // template-produced
}

var materialTmpl = template.Must(template.New("material").Parse(`
<p>{{.M.Description}}</p>
<table>
<tr><th>kind / level</th><td>{{.M.Kind}} / {{.M.Level}}</td></tr>
<tr><th>language</th><td>{{.M.Language}}</td></tr>
<tr><th>year</th><td>{{.M.Year}}</td></tr>
<tr><th>collection</th><td>{{.M.Collection}}</td></tr>
<tr><th>authors</th><td>{{range .M.Authors}}{{.}} {{end}}</td></tr>
<tr><th>url</th><td><a href="{{.M.URL}}">{{.M.URL}}</a></td></tr>
</table>
<h2>Classifications</h2>
<ul>{{range .Paths}}<li>{{.}}</li>{{end}}</ul>
{{if .Replacements}}<h2>Similar materials covering PDC topics</h2>
<ul>{{range .Replacements}}<li><a href="/materials/{{.B}}">{{.B}}</a> ({{.Score}} shared)</li>{{end}}</ul>{{end}}
`))

func (s *Server) handleMaterialPage(w http.ResponseWriter, r *http.Request) {
	v := s.view(r)
	m := v.Material(r.PathValue("id"))
	if m == nil {
		http.NotFound(w, r)
		return
	}
	var paths []string
	for _, id := range m.ClassificationIDs() {
		p := v.CS13().Path(id)
		if p == "" {
			p = v.PDC12().Path(id)
		}
		paths = append(paths, p)
	}
	reps, _ := v.PDCReplacements(m.ID, 5)
	var b strings.Builder
	data := map[string]any{"M": m, "Paths": paths, "Replacements": reps}
	if err := materialTmpl.Execute(&b, data); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.renderPage(w, m.Title, template.HTML(b.String())) //nolint:gosec // template-produced
}

func (s *Server) handleCoveragePage(w http.ResponseWriter, r *http.Request) {
	ont := r.URL.Query().Get("ontology")
	if ont == "" {
		ont = "cs13"
	}
	collection := r.URL.Query().Get("collection")
	style := r.URL.Query().Get("style")
	v := s.view(r)
	rep, err := v.Coverage(ont, collection)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// SVG rendering walks the whole ontology per node for intensity
	// normalization, so the rendered markup is memoized alongside the
	// report it is derived from, keyed by the view's generation.
	key := cache.Key("svg", "coverage", ont, collection, style)
	res, _ := s.tenantSys(r).ResultCache().Do(key, v.Gen(), func() (any, error) {
		svg := viz.CoverageTreeSVG(rep, 2)
		if style == "sunburst" {
			svg = viz.CoverageSunburstSVG(rep, 3, 640)
		}
		return svg, nil
	})
	body := `<p>` + template.HTMLEscapeString(rep.String()) + `</p>` + res.(string)
	s.renderPage(w, "Coverage — "+rep.Collection, template.HTML(body)) //nolint:gosec // SVG built from escaped labels
}

func (s *Server) handleSimilarityPage(w http.ResponseWriter, r *http.Request) {
	left, right := r.URL.Query().Get("left"), r.URL.Query().Get("right")
	if left == "" {
		left = "nifty"
	}
	if right == "" {
		right = "peachy"
	}
	threshold, err := intParam(r.URL.Query(), "threshold", 2)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	v := s.view(r)
	g, err := v.SimilarityGraph(r.Context(), left, right, threshold)
	if err != nil {
		writeReadError(w, err)
		return
	}
	key := cache.Key("svg", "similarity", left, right, strconv.Itoa(threshold))
	res, _ := s.tenantSys(r).ResultCache().Do(key, v.Gen(), func() (any, error) {
		return viz.SimilaritySVG(g, 900, 700), nil
	})
	s.renderPage(w, "Similarity — "+left+" vs "+right, template.HTML(res.(string))) //nolint:gosec // SVG built from escaped labels
}
