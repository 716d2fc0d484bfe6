package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"carcs/internal/classify"
	"carcs/internal/core"
	"carcs/internal/corpus"
	"carcs/internal/coverage"
	"carcs/internal/ingest"
	"carcs/internal/material"
	"carcs/internal/textproc"
	"carcs/internal/workflow"
)

// layerMoves names, for every per-layer metric, the end-to-end metric it
// should move and the workload it should move it on. BENCHMARK.json lists
// the same metrics; the tests hold the two in step.
var layerMoves = map[string]struct{ metric, workload string }{
	"loadgen.late_p99_ms":              {"op_tail_ms", "browse"}, // validity: must stay far below op_p50_ms
	"client.rtt_p50_us":                {"op_p50_ms", "browse"},
	"server.handler_p50_us":            {"op_p50_ms", "browse"},
	"server.loopback_p50_us":           {"op_p50_ms", "browse"},
	"server.search_p50_us":             {"capacity_per_s", "browse"},
	"server.materials_p50_us":          {"op_p50_ms", "browse"},
	"server.material_p50_us":           {"op_p50_ms", "browse"},
	"server.coverage_p90_us":           {"op_tail_ms", "curate"},
	"server.suggest_p50_us":            {"capacity_per_s", "browse"},
	"server.similarity_p90_us":         {"op_tail_ms", "curate"},
	"server.write_p50_us":              {"op_p50_ms", "curate"},
	"replica.router_self_p50_us":       {"op_p50_ms", "replicate"},
	"replica.router_attempts_per_read": {"op_tail_ms", "replicate"},
	"replica.follower_share":           {"capacity_per_s", "replicate"},
	"replica.ckpt_fetch_ms":            {"setup_s", "replicate"},
	"replica.lag_seq_max":              {"capacity_per_s", "replicate"},
	"resilience.shed":                  {"op_tail_ms", "curate"},
	"cache.hit_ratio":                  {"op_tail_ms", "curate"},
	"cache.misses":                     {"op_tail_ms", "curate"},
	"cache.evictions":                  {"op_tail_ms", "curate"},
	"core.generations":                 {"op_tail_ms", "curate"},
	"core.page_us":                     {"op_p50_ms", "browse"},
	"core.commit_p50_ms":               {"capacity_per_s", "ingest"},
	"search.text_us":                   {"capacity_per_s", "browse"},
	"coverage.miss_ms":                 {"op_tail_ms", "curate"},
	"coverage.hit_us":                  {"op_p50_ms", "browse"},
	"classify.suggest_us":              {"capacity_per_s", "browse"},
	"classify.suggest_terms_us":        {"capacity_per_s", "ingest"},
	"textproc.terms_us":                {"capacity_per_s", "ingest"},
	"ingest.decode_us":                 {"capacity_per_s", "ingest"},
	"ingest.review_frac":               {"capacity_per_s", "ingest"},
	"journal.fsyncs":                   {"capacity_per_s", "ingest"},
	"journal.fsync_p50_ms":             {"op_p50_ms", "curate"},
	"journal.fsync_p99_ms":             {"op_tail_ms", "curate"},
	"journal.records_per_fsync":        {"capacity_per_s", "ingest"},
	"journal.bytes_per_record":         {"replay_s", "ingest"},
	"journal.ckpt_read_ms":             {"restart_s", "ingest"},
	"core.restore_s":                   {"restart_s", "ingest"},
	"journal.scan_s":                   {"replay_s", "ingest"},
	"core.apply_s":                     {"replay_s", "ingest"},
	"trace.overhead_frac":              {"op_p50_ms", "browse"},
}

// Probe sizes: enough calls for a steady median, few enough to keep a
// traced run short.
const (
	probeCalls   = 200
	probeHTTP    = 10 // per read route
	probeRouted  = 40
	stagedImport = 256
)

// probe runs, after the measured phases of a traced run, the calls that
// give every layer a reading on every workload: a few HTTP requests per
// route (direct and through a router), direct calls into each layer's
// public functions, and an import run stage by stage.
func (r *runner) probe(ctx context.Context) (map[string]float64, error) {
	out := map[string]float64{}
	if err := r.httpProbes(out); err != nil {
		return nil, err
	}
	if err := r.directProbes(out); err != nil {
		return nil, err
	}
	if err := r.stagedImport(out); err != nil {
		return nil, err
	}
	// Journal counters, read before recovery closes the journal.
	st := r.c.leader.p.Stats()
	if st.Batches > 0 {
		out["journal.records_per_fsync"] = float64(st.BatchRecords) / float64(st.Batches)
	}
	if st.WALRecords > 0 {
		out["journal.bytes_per_record"] = float64(st.WALBytes) / float64(st.WALRecords)
	}
	return out, ctx.Err()
}

func (r *runner) httpProbes(out map[string]float64) error {
	for k := opKind(0); k < opCreate; k++ {
		for i := 0; i < probeHTTP; i++ {
			o := r.g.readOf(k)
			if _, _, err := r.cl.do(0, r.c.target, &o); err != nil {
				return err
			}
		}
	}
	for i := 0; i < probeHTTP; i++ {
		o := r.g.write()
		if _, _, err := r.cl.do(0, r.c.target, &o); err != nil {
			return err
		}
	}
	// Workloads without replication get a router over their single node
	// for these probes only, so the router hop has a reading everywhere.
	routerURL := r.c.target
	if r.c.router == nil {
		rt, ln, err := startRouter([]string{r.c.leader.ln.url}, r.tr)
		if err != nil {
			return err
		}
		r.cl.close()
		defer func() { r.cl.close(); ln.close(); rt.Close() }()
		routerURL = ln.url
	}
	for i := 0; i < probeRouted; i++ {
		o := r.g.readOf([]opKind{opMaterial, opSearch}[i%2])
		if _, _, err := r.cl.do(0, routerURL, &o); err != nil {
			return err
		}
	}
	var health struct {
		Stats struct {
			Reads   float64 `json:"reads"`
			Retries float64 `json:"read_retries"`
		} `json:"stats"`
	}
	if err := getJSON(r.cl.conns[0], routerURL+"/api/health", &health); err != nil {
		return err
	}
	if health.Stats.Reads > 0 {
		out["replica.router_attempts_per_read"] = 1 + health.Stats.Retries/health.Stats.Reads
	}
	r.cl.mu.Lock()
	defer r.cl.mu.Unlock()
	routed, byFollower := 0, 0
	for url, n := range r.cl.routes {
		routed += n
		if r.c.follower != nil && url == r.c.follower.ln.url {
			byFollower += n
		}
	}
	if routed > 0 {
		out["replica.follower_share"] = float64(byFollower) / float64(routed)
	}
	return nil
}

func getJSON(hc *http.Client, url string, into any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(into)
}

// probeMedian times n calls of fn and returns the median in unit.
func probeMedian(n int, unit time.Duration, fn func(i int)) float64 {
	var s sample
	for i := 0; i < n; i++ {
		t0 := time.Now()
		fn(i)
		s.add(time.Since(t0))
	}
	return s.pct(50, unit)
}

// directProbes calls each read-path layer's public function on the node's
// current view.
func (r *runner) directProbes(out map[string]float64) error {
	v := r.c.leader.sys.View()
	ids := materialIDs(r.c.leader.sys)
	sort.Strings(ids)
	mats := v.Materials("")
	terms := make([][]string, len(suggestTexts))
	for i, t := range suggestTexts {
		terms[i] = textproc.Terms(t)
	}
	out["core.page_us"] = probeMedian(probeCalls, time.Microsecond, func(i int) {
		v.MaterialsPage("bench-probe", nil, ids[i*7%len(ids)], 50)
	})
	out["search.text_us"] = probeMedian(probeCalls, time.Microsecond, func(i int) {
		v.SearchText(searchTerms[i%len(searchTerms)], 10)
	})
	out["coverage.miss_ms"] = probeMedian(5, time.Millisecond, func(int) {
		_, _ = coverage.ComputeCtx(context.Background(), v.CS13(), "all materials", v.Materials(""))
	})
	if _, err := v.Coverage("cs13", ""); err != nil {
		return err
	}
	out["coverage.hit_us"] = probeMedian(probeCalls, time.Microsecond, func(int) {
		_, _ = v.Coverage("cs13", "")
	})
	out["classify.suggest_us"] = probeMedian(probeCalls, time.Microsecond, func(i int) {
		_, _ = v.SuggestDirect("tfidf", "cs13", suggestTexts[i%len(suggestTexts)], 10)
	})
	out["classify.suggest_terms_us"] = probeMedian(probeCalls, time.Microsecond, func(i int) {
		_, _ = v.SuggestTermsDirect("tfidf", "cs13", terms[i%len(terms)], 3)
	})
	out["textproc.terms_us"] = probeMedian(probeCalls, time.Microsecond, func(i int) {
		textproc.Terms(mats[i%len(mats)].SearchText())
	})
	var buf bytes.Buffer
	if err := ingest.WriteJSONL(&buf, mats[:min(probeCalls, len(mats))]); err != nil {
		return err
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var derr error
	out["ingest.decode_us"] = probeMedian(probeCalls, time.Microsecond, func(i int) {
		if _, err := decodeRecord(lines[i%len(lines)]); err != nil {
			derr = err
		}
	})
	if derr != nil {
		return derr
	}
	r.cl.close()
	defer r.cl.close()
	out["replica.ckpt_fetch_ms"] = probeMedian(3, time.Millisecond, func(int) {
		if err := fetchCheckpoint(r.cl.conns[0], r.c.leader.ln.url); err != nil {
			derr = err
		}
	})
	return derr
}

// decodeRecord parses one JSONL import line as the importer does.
func decodeRecord(line string) (*material.Material, error) {
	var rec ingest.Record
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return nil, err
	}
	return rec.Material(), nil
}

func fetchCheckpoint(hc *http.Client, leaderURL string) error {
	resp, err := hc.Get(leaderURL + "/api/replication/checkpoint")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("checkpoint fetch: %s", resp.Status)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// stagedImport runs the importer's per-record work one stage at a time
// through public calls (decode, analyze, suggest, batched commit, review
// submission), one span per stage, mirroring ingest.Importer with the
// tfidf method at its default threshold.
func (r *runner) stagedImport(out map[string]float64) error {
	mats := corpus.Synthetic(corpus.SyntheticOptions{N: stagedImport, Seed: r.seed + 2, IDPrefix: "stg-"}).All()
	for i, m := range mats {
		if i%4 == 3 {
			m.Classifications = nil
		}
	}
	var buf bytes.Buffer
	if err := ingest.WriteJSONL(&buf, mats); err != nil {
		return err
	}
	sys := r.c.leader.sys
	v := sys.View()
	threshold := ingest.DefaultThresholdFor("tfidf")
	var chunk, review []*material.Material
	added := 0
	commit := func() error {
		err := r.tr.timed("core.commit", true, func() error { return sys.AddMaterials(chunk) })
		added += len(chunk)
		chunk = chunk[:0]
		return err
	}
	err := r.tr.timed("ingest.staged", false, func() error {
		sc := bufio.NewScanner(&buf)
		for sc.Scan() {
			var m *material.Material
			if err := r.tr.timed("ingest.decode", false, func() (err error) {
				m, err = decodeRecord(sc.Text())
				return err
			}); err != nil {
				return err
			}
			if len(m.Classifications) == 0 && !r.autoClassify(v, m, threshold) {
				review = append(review, m)
			} else if chunk = append(chunk, m); len(chunk) == loadChunk {
				if err := commit(); err != nil {
					return err
				}
			}
		}
		if len(chunk) > 0 {
			if err := commit(); err != nil {
				return err
			}
		}
		q := sys.Workflow()
		if _, ok := q.Account(ingest.DefaultReviewer); !ok {
			if _, err := q.Register(ingest.DefaultReviewer, workflow.RoleSubmitter); err != nil {
				return err
			}
		}
		for _, m := range review {
			if err := r.tr.timed("workflow.submit", true, func() error {
				_, err := q.Submit(ingest.DefaultReviewer, m)
				return err
			}); err != nil {
				return err
			}
		}
		return sc.Err()
	})
	if err != nil {
		return fmt.Errorf("staged import: %w", err)
	}
	r.added.Add(int64(added))
	r.reviewed.Add(int64(len(review)))
	out["ingest.review_frac"] = float64(len(review)) / float64(len(mats))
	return nil
}

// autoClassify is the importer's auto-classification step, with a span for
// the analysis and one per suggestion query: suggestions at or above the
// threshold are applied; otherwise the best proposal per ontology is
// attached and the record goes to review.
func (r *runner) autoClassify(v *core.View, m *material.Material, threshold float64) bool {
	var terms []string
	_ = r.tr.timed("textproc.terms", false, func() error {
		terms = textproc.Terms(m.SearchText())
		return nil
	})
	var proposals []material.Classification
	applied := false
	for _, ont := range []string{"cs13", "pdc12"} {
		var sugg []classify.Suggestion
		_ = r.tr.timed("classify.suggest", false, func() (err error) {
			sugg, err = v.SuggestTermsDirect("tfidf", ont, terms, 3)
			return err
		})
		if len(sugg) == 0 {
			continue
		}
		cleared := false
		for _, sg := range sugg {
			if sg.Score < threshold {
				break
			}
			m.Classifications = append(m.Classifications, material.Classification{NodeID: sg.NodeID})
			applied, cleared = true, true
		}
		if !cleared && sugg[0].Score > 0 {
			proposals = append(proposals, material.Classification{NodeID: sugg[0].NodeID})
		}
	}
	if applied {
		m.Tags = append(m.Tags, ingest.MachineClassifiedTag)
		return true
	}
	m.Classifications = append(m.Classifications, proposals...)
	m.Tags = append(m.Tags, ingest.MachineSuggestedTag)
	return false
}

// layers derives the per-layer metrics of a traced run from its spans, its
// open-loop timings, its counters and its probes.
func (r *runner) layers(lat []timing, probes map[string]float64) map[string]float64 {
	spans := r.tr.snapshot()
	self := selfTimes(spans)
	kindOf := map[int64]string{}
	for _, s := range spans {
		if k, ok := strings.CutPrefix(s.Name, "client."); ok {
			kindOf[s.Req] = k
		}
	}
	var rtt, loopback, handler, router, fsync, commit, late sample
	route := map[string]*sample{}
	stage := map[string][]float64{} // recovery stage durations, one per recovery
	var routed struct{ loopback, router, server sample }
	children := map[int64][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	for _, s := range spans {
		own := time.Duration(self[s.ID])
		switch {
		case kindOf[s.Req] != "" && strings.HasPrefix(s.Name, "client."):
			rtt.add(time.Duration(s.dur()))
			loopback.add(own)
			// A routed request: split it into client-to-router transport,
			// router, and backend server.
			for _, rs := range children[s.ID] {
				if rs.Name != "router" {
					continue
				}
				routed.loopback.add(own)
				routed.router.add(time.Duration(self[rs.ID]))
				for _, ss := range children[rs.ID] {
					routed.server.add(time.Duration(self[ss.ID]))
				}
			}
		case s.Name == "server" && s.Req != 0:
			handler.add(own)
			k := kindOf[s.Req]
			if k == "create" || k == "reclassify" {
				k = "write"
			}
			if route[k] == nil {
				route[k] = &sample{}
			}
			route[k].add(own)
		case s.Name == "router" && s.Req != 0:
			router.add(own)
		case s.Name == "journal.fsync":
			fsync.add(time.Duration(s.dur()))
		case s.Name == "core.commit":
			commit.add(own)
		case strings.Contains(s.Name, "/") || s.Name == "restart" || s.Name == "replay":
			stage[s.Name] = append(stage[s.Name], time.Duration(s.dur()).Seconds())
		}
	}
	for _, t := range lat {
		late.add(t.late)
	}
	pr := func(k string, p float64) float64 {
		if route[k] == nil {
			return 0
		}
		return route[k].pct(p, time.Microsecond)
	}
	hitRatio := 0.0
	if n := r.detail["cache_hits"] + r.detail["cache_misses"]; n > 0 {
		hitRatio = r.detail["cache_hits"] / n
	}
	m := map[string]float64{
		"loadgen.late_p99_ms":        late.pct(99, time.Millisecond),
		"client.rtt_p50_us":          rtt.pct(50, time.Microsecond),
		"server.handler_p50_us":      handler.pct(50, time.Microsecond),
		"server.loopback_p50_us":     loopback.pct(50, time.Microsecond),
		"server.search_p50_us":       pr("search", 50),
		"server.materials_p50_us":    pr("materials", 50),
		"server.material_p50_us":     pr("material", 50),
		"server.coverage_p90_us":     pr("coverage", 90),
		"server.suggest_p50_us":      pr("suggest", 50),
		"server.similarity_p90_us":   pr("similarity", 90),
		"server.write_p50_us":        pr("write", 50),
		"replica.router_self_p50_us": router.pct(50, time.Microsecond),
		"replica.lag_seq_max":        r.detail["lag_seq_max"],
		"resilience.shed":            float64(r.cl.shed),
		"cache.hit_ratio":            hitRatio,
		"cache.misses":               r.detail["cache_misses"],
		"cache.evictions":            r.detail["cache_evictions"],
		"core.generations":           r.detail["generations"],
		"core.commit_p50_ms":         commit.pct(50, time.Millisecond),
		"journal.fsyncs":             float64(len(fsync)),
		"journal.fsync_p50_ms":       fsync.pct(50, time.Millisecond),
		"journal.fsync_p99_ms":       fsync.pct(99, time.Millisecond),
		"journal.ckpt_read_ms":       median(stage["restart/journal.ckpt_read"]) * 1e3,
		"core.restore_s":             median(stage["restart/core.restore"]),
		"journal.scan_s":             median(stage["replay/journal.scan"]),
		"core.apply_s":               median(stage["replay/core.apply"]),
	}
	for k, v := range probes {
		m[k] = v
	}

	// Attribution: how much of each recovery the staged layers account for.
	for _, rec := range []string{"restart", "replay"} {
		parts := 0.0
		for name, ds := range stage {
			if strings.HasPrefix(name, rec+"/") {
				parts += median(ds)
			}
		}
		r.detail[rec+"_s"] = median(stage[rec])
		r.detail[rec+"_stages_s"] = parts
	}
	var staged span
	for _, s := range spans {
		if s.Name == "ingest.staged" {
			staged = s
		}
	}
	var stagedParts float64
	for _, s := range spans {
		switch s.Name {
		case "ingest.decode", "textproc.terms", "classify.suggest", "core.commit", "workflow.submit":
			if s.Start >= staged.Start && s.End <= staged.End {
				stagedParts += time.Duration(s.dur()).Seconds()
			}
		}
	}
	r.detail["staged_import_s"] = time.Duration(staged.dur()).Seconds()
	r.detail["staged_import_stages_s"] = stagedParts
	if len(routed.router) > 0 {
		r.detail["routed_rtt_parts_p50_us"] = routed.loopback.pct(50, time.Microsecond) +
			routed.router.pct(50, time.Microsecond) + routed.server.pct(50, time.Microsecond)
	}
	r.detail["rtt_p50_us"] = m["client.rtt_p50_us"]
	r.detail["spans"] = float64(len(spans))
	return m
}
