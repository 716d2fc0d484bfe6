package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"sync"
	"time"

	"carcs/internal/replica"
)

// client is the benchmark's HTTP side: one keep-alive connection per
// sender, every response checked for status and body.
type client struct {
	conns []*http.Client
	bufs  []*bytes.Buffer // per sender, reused for response bodies
	tr    *tracer

	mu sync.Mutex
	// acked holds the classification set of every acknowledged write, by
	// material id, for the read-back check.
	acked map[string][]string
	// created counts acknowledged new materials.
	created int
	// routes counts which backend served each routed read.
	routes map[string]int
	shed   int
}

func newClient(senders int, tr *tracer) *client {
	c := &client{tr: tr, acked: map[string][]string{}, routes: map[string]int{}}
	for i := 0; i < senders; i++ {
		c.bufs = append(c.bufs, &bytes.Buffer{})
		c.conns = append(c.conns, &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				Proxy:               nil, // loopback traffic never goes through a proxy
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return c
}

// close drops the senders' idle connections; calls made afterwards open new
// ones, so switching to another host keeps the connection count at one per
// sender.
func (c *client) close() {
	for _, hc := range c.conns {
		hc.CloseIdleConnections()
	}
}

// do sends o to base on the sender's connection and returns when the
// response was complete. The body is checked after that moment, so the
// check's own cost is not charged to the server. failed reports a shed
// (429/503) or transport failure; err reports a wrong answer.
func (c *client) do(sender int, base string, o *op) (done time.Time, failed bool, err error) {
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req, err := http.NewRequest(o.method, base+o.path, body)
	if err != nil {
		return time.Now(), false, err
	}
	if o.kind.write() {
		req.Header.Set("X-User", editor)
		req.Header.Set("Content-Type", "application/json")
	}
	var id, start int64
	if c.tr.enabled() {
		id, start = c.tr.newID(), c.tr.now()
		req.Header.Set(hdrReq, strconv.FormatInt(id, 10))
		req.Header.Set(hdrParent, strconv.FormatInt(id, 10))
	}
	resp, err := c.conns[sender].Do(req)
	if err != nil {
		return time.Now(), true, nil
	}
	buf := c.bufs[sender]
	buf.Reset()
	_, rerr := buf.ReadFrom(resp.Body)
	resp.Body.Close()
	done = time.Now()
	if c.tr.enabled() {
		c.tr.add(span{ID: id, Req: id, Name: "client." + o.kind.String(), Start: start, End: c.tr.now()})
	}
	if rerr != nil {
		return done, true, nil
	}
	switch resp.StatusCode {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		c.mu.Lock()
		c.shed++
		c.mu.Unlock()
		return done, true, nil
	}
	if route := resp.Header.Get(replica.HeaderRoute); route != "" && !o.kind.write() {
		c.mu.Lock()
		c.routes[route]++
		c.mu.Unlock()
	}
	if err := check(o, resp.StatusCode, buf.Bytes()); err != nil {
		return done, false, fmt.Errorf("%s %s: %w", o.method, o.path, err)
	}
	if o.kind.write() {
		c.mu.Lock()
		c.acked[o.id] = o.cls
		if o.kind == opCreate {
			c.created++
		}
		c.mu.Unlock()
	}
	return done, false, nil
}

// materialBody is the slice of the material wire form the checks read.
type materialBody struct {
	ID              string   `json:"id"`
	Classifications []string `json:"classifications"`
}

// check validates one response against what the operation asked for.
func check(o *op, status int, data []byte) error {
	want := http.StatusOK
	if o.kind == opCreate {
		want = http.StatusCreated
	}
	if status != want {
		return fmt.Errorf("status %d, want %d: %.200s", status, want, data)
	}
	switch o.kind {
	case opSearch:
		var hits []struct {
			Material materialBody `json:"material"`
		}
		if json.Unmarshal(data, &hits) != nil {
			var corrected struct {
				DidYouMean string `json:"did_you_mean"`
				Hits       []struct {
					Material materialBody `json:"material"`
				} `json:"hits"`
			}
			if err := json.Unmarshal(data, &corrected); err != nil || corrected.DidYouMean == "" {
				return fmt.Errorf("bad search body: %.200s", data)
			}
			hits = corrected.Hits
		}
		for _, h := range hits {
			if h.Material.ID == "" {
				return fmt.Errorf("search hit without material id")
			}
		}
	case opPage:
		var page struct {
			Total     int            `json:"total"`
			Limit     int            `json:"limit"`
			Materials []materialBody `json:"materials"`
		}
		if err := json.Unmarshal(data, &page); err != nil {
			return fmt.Errorf("bad page body: %w", err)
		}
		if page.Limit != 50 || len(page.Materials) > 50 || page.Total < len(page.Materials) {
			return fmt.Errorf("bad page: total %d limit %d len %d", page.Total, page.Limit, len(page.Materials))
		}
		for i := 1; i < len(page.Materials); i++ {
			if page.Materials[i-1].ID >= page.Materials[i].ID {
				return fmt.Errorf("page out of id order at %d", i)
			}
		}
	case opMaterial:
		var m materialBody
		if err := json.Unmarshal(data, &m); err != nil || "/api/materials/"+m.ID != o.path {
			return fmt.Errorf("wrong material: %.200s", data)
		}
	case opCoverage:
		var cov struct {
			Ontology     string `json:"ontology"`
			Materials    *int   `json:"materials"`
			TotalEntries int    `json:"total_entries"`
		}
		if err := json.Unmarshal(data, &cov); err != nil || cov.Ontology == "" || cov.Materials == nil || cov.TotalEntries == 0 {
			return fmt.Errorf("bad coverage body: %.200s", data)
		}
	case opSimilarity:
		var g struct {
			Nodes int `json:"nodes"`
		}
		if err := json.Unmarshal(data, &g); err != nil || g.Nodes == 0 {
			return fmt.Errorf("bad similarity body: %.200s", data)
		}
	case opSuggest, opRecommend, opQuery:
		var list []json.RawMessage
		if err := json.Unmarshal(data, &list); err != nil {
			return fmt.Errorf("bad %s body: %.200s", o.kind, data)
		}
	case opCreate, opReclassify:
		var m materialBody
		if err := json.Unmarshal(data, &m); err != nil || m.ID != o.id || !reflect.DeepEqual(m.Classifications, o.cls) {
			return fmt.Errorf("write not reflected: %.200s", data)
		}
	}
	return nil
}

// readBack fetches every acknowledged write by id and checks its stored
// classifications.
func (c *client) readBack(base string) error {
	for id, cls := range c.acked {
		o := op{kind: opReclassify, method: "GET", path: "/api/materials/" + id, id: id, cls: cls}
		resp, err := c.conns[0].Get(base + o.path)
		if err != nil {
			return fmt.Errorf("read back %s: %w", id, err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("read back %s: %w", id, err)
		}
		if err := check(&o, resp.StatusCode, data); err != nil {
			return fmt.Errorf("read back %s: %w", id, err)
		}
	}
	return nil
}
