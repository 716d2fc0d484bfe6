package replica

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"carcs/internal/resilience"
)

// Router defaults.
const (
	// DefaultProbeInterval paces the readiness sweep over all backends.
	DefaultProbeInterval = 500 * time.Millisecond
	// DefaultBackendTimeout bounds one proxied read attempt; a write gets
	// double (it pays an fsync).
	DefaultBackendTimeout = 5 * time.Second
	// DefaultMaxLag is the staleness budget in journal sequences: a
	// follower further behind the leader is routed around until it
	// catches up.
	DefaultMaxLag = 1000
	// DefaultElectionWait is how long a write waits for a leader to appear
	// before the router gives up with 503 + Retry-After. Sized to cover a
	// promotion plus a probe sweep, not a full outage.
	DefaultElectionWait = 2 * time.Second
)

// RouterConfig tunes the router. Zero values take defaults.
type RouterConfig struct {
	// Backends are the member base URLs. Leadership is discovered by
	// probing each member's /api/health/ready (role + epoch), not assumed
	// from order; the first entry only serves as the leader guess until the
	// first probe lands.
	Backends []string
	// ProbeInterval paces health probes.
	ProbeInterval time.Duration
	// BackendTimeout bounds one proxied read attempt.
	BackendTimeout time.Duration
	// MaxLag is the staleness budget in sequences.
	MaxLag uint64
	// ElectionWait bounds how long a write waits for leader discovery
	// before answering 503; <= 0 takes DefaultElectionWait.
	ElectionWait time.Duration
	// Breaker tunes the per-backend ejection breaker. The router default
	// ejects on the first failure (a retry already saved the client) and
	// re-probes after a short cooldown — half-open, one probe at a time,
	// exactly like the journal write breaker.
	Breaker resilience.BreakerConfig
}

// Probed backend roles. The zero value, roleOther, covers a backend not yet
// probed and one whose probe reported no role it recognizes: neither ever
// claims the write path.
const (
	roleOther int32 = iota
	roleLeader
	roleFollower
	roleFenced
)

func roleString(r int32) string {
	switch r {
	case roleLeader:
		return "leader"
	case roleFollower:
		return "follower"
	case roleFenced:
		return "fenced"
	}
	return "other"
}

// backend is one routed member with its ejection breaker and last-probed
// replication position.
type backend struct {
	url     string
	breaker *resilience.Breaker

	role     atomic.Int32
	epoch    atomic.Uint64
	seq      atomic.Uint64
	ready    atomic.Bool
	lastErr  atomic.Pointer[string]
	served   atomic.Uint64
	failures atomic.Uint64
}

// claimsLeader reports whether this backend's last probe claimed the write
// path.
func (b *backend) claimsLeader() bool { return b.role.Load() == roleLeader }

// Router fans reads out across followers with the leader as fallback, and
// proxies writes to the discovered leader. A failed read attempt is retried
// on the next candidate before anything reaches the client, so a backend
// dying mid-request degrades to a slower answer, never a 5xx. Leadership is
// probed, not configured: writes follow whichever backend claims the
// highest epoch, and a backend still claiming leadership at a stale epoch
// is ejected from rotation and told it has been deposed.
type Router struct {
	cfg      RouterConfig
	backends []*backend
	client   *http.Client

	lastLeader atomic.Pointer[backend]

	rr atomic.Uint64

	reads           atomic.Uint64
	writes          atomic.Uint64
	retries         atomic.Uint64
	leaderFallbacks atomic.Uint64
	writeUnrouted   atomic.Uint64
	fenced          atomic.Uint64

	mu   sync.Mutex
	stop chan struct{}
	done chan struct{}
}

// NewRouter builds a router over the given backends.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("replica: router needs at least one backend")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.BackendTimeout <= 0 {
		cfg.BackendTimeout = DefaultBackendTimeout
	}
	if cfg.MaxLag == 0 {
		cfg.MaxLag = DefaultMaxLag
	}
	if cfg.ElectionWait <= 0 {
		cfg.ElectionWait = DefaultElectionWait
	}
	if cfg.Breaker.FailureThreshold == 0 {
		cfg.Breaker.FailureThreshold = 1
	}
	if cfg.Breaker.Cooldown == 0 {
		cfg.Breaker.Cooldown = 2 * time.Second
	}
	// One tuned transport serves every proxied read: a deep idle pool per
	// backend (the scatter pattern reopens connections constantly under the
	// default 2-per-host cap), no bound on total idle connections, and a
	// generous idle timeout so steady read traffic never pays connection
	// setup. ForceAttemptHTTP2 is left off — backends are plain HTTP/1.1 and
	// the proxy copies bodies verbatim.
	rt := &Router{cfg: cfg, client: &http.Client{Transport: &http.Transport{
		MaxIdleConns:        0, // unlimited; per-host cap governs
		MaxIdleConnsPerHost: 256,
		IdleConnTimeout:     90 * time.Second,
	}}}
	for _, raw := range cfg.Backends {
		rt.backends = append(rt.backends, &backend{
			url:     strings.TrimRight(raw, "/"),
			breaker: resilience.NewBreaker(cfg.Breaker),
		})
	}
	// Until the first probe lands, the first-configured backend is the best
	// leader guess: reads fall back to it rather than failing closed.
	rt.lastLeader.Store(rt.backends[0])
	return rt, nil
}

// Start launches the background probe loop (and runs one synchronous sweep
// first, so a freshly started router routes correctly immediately).
func (rt *Router) Start() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.stop != nil {
		return
	}
	rt.probeAll()
	rt.stop = make(chan struct{})
	rt.done = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		t := time.NewTicker(rt.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				rt.probeAll()
			case <-stop:
				return
			}
		}
	}(rt.stop, rt.done)
}

// Close stops the probe loop.
func (rt *Router) Close() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.stop == nil {
		return
	}
	close(rt.stop)
	<-rt.done
	rt.stop, rt.done = nil, nil
}

// probeAll sweeps every backend's /api/health/ready in parallel, then runs
// the fence sweep: if more than one ready backend claims leadership, only
// the highest epoch is real — stale claimants are ejected from rotation and
// notified that they have been deposed. Probes share the ejection breaker
// with live traffic: a probe against an ejected backend is exactly the
// breaker's half-open trial, so recovery needs no separate mechanism.
func (rt *Router) probeAll() {
	var wg sync.WaitGroup
	for _, b := range rt.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			rt.probe(b)
		}(b)
	}
	wg.Wait()

	var lead *backend
	var maxE uint64
	for _, b := range rt.backends {
		if !b.ready.Load() || !b.claimsLeader() {
			continue
		}
		if e := b.epoch.Load(); lead == nil || e > maxE {
			lead, maxE = b, e
		}
	}
	if lead == nil {
		return
	}
	rt.lastLeader.Store(lead)
	for _, b := range rt.backends {
		if b == lead || !b.ready.Load() || !b.claimsLeader() || b.epoch.Load() >= maxE {
			continue
		}
		// Split brain: this backend still believes it leads a term that has
		// been superseded. Never route to it, and shorten the window in
		// which it accepts writes it can no longer replicate.
		b.ready.Store(false)
		rt.fenced.Add(1)
		msg := fmt.Sprintf("stale leader claim: epoch %d, current %d at %s",
			b.epoch.Load(), maxE, lead.url)
		b.lastErr.Store(&msg)
		go func(url string) {
			_ = NotifyFence(context.Background(), rt.client, url, maxE, lead.url)
		}(b.url)
	}
}

// readyBody is the slice of /api/health/ready the router consumes.
type readyBody struct {
	Status     string `json:"status"`
	Role       string `json:"role"`
	Epoch      uint64 `json:"epoch"`
	Seq        uint64 `json:"seq"`
	AppliedSeq uint64 `json:"applied_seq"`
}

func (rt *Router) probe(b *backend) {
	_, err := b.breaker.Acquire()
	if err != nil {
		return // still cooling down; FastFail keeps it out of rotation
	}
	perr := func() error {
		ctx, cancel := context.WithTimeout(context.Background(),
			min(rt.cfg.BackendTimeout, 2*time.Second))
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/api/health/ready", nil)
		if err != nil {
			return err
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var body readyBody
		if derr := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body); derr == nil {
			b.seq.Store(max(body.Seq, body.AppliedSeq))
			b.epoch.Store(body.Epoch)
			switch body.Role {
			case "leader", "standalone":
				b.role.Store(roleLeader)
			case "follower":
				b.role.Store(roleFollower)
			case "fenced":
				b.role.Store(roleFenced)
			default:
				b.role.Store(roleOther)
			}
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("replica: %s unready (%s)", b.url, resp.Status)
		}
		return nil
	}()
	b.breaker.Record(perr)
	b.ready.Store(perr == nil)
	if perr != nil {
		msg := perr.Error()
		b.lastErr.Store(&msg)
	} else {
		b.lastErr.Store(nil)
	}
}

// leader returns the ready backend claiming leadership at the highest
// epoch, or nil during an election window when no live backend claims the
// write path.
func (rt *Router) leader() *backend {
	var lead *backend
	var maxE uint64
	for _, b := range rt.backends {
		if !b.ready.Load() || !b.claimsLeader() || b.breaker.FastFail() {
			continue
		}
		if e := b.epoch.Load(); lead == nil || e > maxE {
			lead, maxE = b, e
		}
	}
	if lead != nil {
		rt.lastLeader.Store(lead)
	}
	return lead
}

// awaitLeader polls for a discovered leader until the election-wait budget
// elapses. The background probe loop keeps sweeping meanwhile, so a
// promotion completing inside the window is picked up here.
func (rt *Router) awaitLeader(ctx context.Context) *backend {
	deadline := time.NewTimer(rt.cfg.ElectionWait)
	defer deadline.Stop()
	tick := time.NewTicker(25 * time.Millisecond)
	defer tick.Stop()
	for {
		if b := rt.leader(); b != nil {
			return b
		}
		select {
		case <-tick.C:
		case <-deadline.C:
			return nil
		case <-ctx.Done():
			return nil
		}
	}
}

// horizon is the reference sequence lag is measured against: the leader's
// probed position, or — with no leader — the furthest-ahead ready backend.
func (rt *Router) horizon() uint64 {
	if lead := rt.lastLeader.Load(); lead != nil && lead.ready.Load() {
		return lead.seq.Load()
	}
	var m uint64
	for _, b := range rt.backends {
		if b.ready.Load() {
			m = max(m, b.seq.Load())
		}
	}
	return m
}

// lag returns how many sequences b trails the routing horizon.
func (rt *Router) lag(b *backend) uint64 {
	if h, bs := rt.horizon(), b.seq.Load(); h > bs {
		return h - bs
	}
	return 0
}

// readCandidates orders the backends to try for one read: in-budget, ready
// non-leader backends rotated round-robin, then the leader as the
// authoritative fallback (always, even when its own probe is stale — a
// read against it is the last thing standing between the client and a
// 502). During an election window the last known leader fills the fallback
// slot: its read-only state still beats an error.
func (rt *Router) readCandidates() (cands []*backend, lead *backend) {
	lead = rt.leader()
	var eligible []*backend
	for _, b := range rt.backends {
		if b == lead {
			continue
		}
		if b.ready.Load() && !b.breaker.FastFail() && rt.lag(b) <= rt.cfg.MaxLag {
			eligible = append(eligible, b)
		}
	}
	out := make([]*backend, 0, len(eligible)+1)
	if n := len(eligible); n > 0 {
		start := int(rt.rr.Add(1)) % n
		for i := 0; i < n; i++ {
			out = append(out, eligible[(start+i)%n])
		}
	} else if len(rt.backends) > 1 && lead != nil {
		rt.leaderFallbacks.Add(1)
	}
	if lead != nil {
		return append(out, lead), lead
	}
	if last := rt.lastLeader.Load(); last != nil {
		for _, b := range out {
			if b == last {
				return out, nil
			}
		}
		return append(out, last), nil
	}
	return out, nil
}

// ServeHTTP routes one request: router-local health endpoints, then reads
// scattered over the candidates, writes proxied to the leader.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/api/health":
		rt.serveHealth(w)
		return
	case "/api/health/live":
		writeRouterJSON(w, http.StatusOK, map[string]string{"status": "live", "role": "router"})
		return
	case "/api/health/ready":
		rt.serveReady(w)
		return
	}
	if r.Method == http.MethodGet || r.Method == http.MethodHead {
		rt.serveRead(w, r)
		return
	}
	rt.serveWrite(w, r)
}

// serveRead tries each candidate in order until one yields a non-5xx
// response. Conditional validators are stripped: ETags are view
// generations, which are process-local, so a validator minted by one
// backend must never produce a 304 on another.
func (rt *Router) serveRead(w http.ResponseWriter, r *http.Request) {
	rt.reads.Add(1)
	cands, lead := rt.readCandidates()
	tried := 0
	for i, b := range cands {
		if _, err := b.breaker.Acquire(); err != nil {
			if b == lead || i == len(cands)-1 {
				// Final fallback and its breaker is cooling down: a
				// stale read against it still beats a guaranteed 502.
				// attempt writes nothing on failure, so falling through
				// to the 502 below is safe.
				err := rt.attempt(w, r, b, rt.cfg.BackendTimeout)
				b.breaker.Record(err)
				if err == nil {
					return
				}
				b.failures.Add(1)
			}
			continue
		}
		tried++
		err := rt.attempt(w, r, b, rt.cfg.BackendTimeout)
		b.breaker.Record(err)
		if err == nil {
			return
		}
		b.failures.Add(1)
		rt.retries.Add(1)
	}
	writeRouterError(w, http.StatusBadGateway,
		fmt.Sprintf("no backend could serve the read (%d tried)", tried), 1)
}

// errBackend marks a failed proxy attempt that wrote nothing to the client
// (safe to retry on the next backend).
type errBackend struct{ err error }

func (e errBackend) Error() string { return e.err.Error() }

// attempt proxies one read to b. It buffers nothing: headers and status are
// only written once the backend has answered with a non-5xx status, so a
// failure before that point leaves the client connection untouched and
// retryable. Returns nil once the response has begun streaming.
func (rt *Router) attempt(w http.ResponseWriter, r *http.Request, b *backend, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, r.Method, b.url+r.URL.RequestURI(), nil)
	if err != nil {
		return errBackend{err}
	}
	copyProxyHeaders(req.Header, r.Header)
	resp, err := rt.client.Do(req)
	if err != nil {
		return errBackend{err}
	}
	defer resp.Body.Close()
	if resp.StatusCode >= http.StatusInternalServerError {
		// Drain a little so the connection can be reused, then retry
		// elsewhere.
		_, _ = io.CopyN(io.Discard, resp.Body, 4096)
		return errBackend{fmt.Errorf("replica: %s answered %s", b.url, resp.Status)}
	}
	hdr := w.Header()
	for k, vv := range resp.Header {
		hdr[k] = vv
	}
	hdr.Del("Etag") // process-local validator; see serveRead
	hdr.Set(HeaderRoute, b.url)
	if hdr.Get(HeaderEpoch) == "" {
		if e := b.epoch.Load(); e > 0 {
			hdr.Set(HeaderEpoch, strconv.FormatUint(e, 10))
		}
	}
	w.WriteHeader(resp.StatusCode)
	b.served.Add(1)
	copyBody(w, resp.Body) // a mid-body failure is the client's truncation to detect
	return nil
}

// proxyBufPool recycles body-copy buffers across proxied requests: io.Copy
// would otherwise allocate a fresh 32 KiB buffer per read, which at router
// scatter rates is pure GC pressure.
var proxyBufPool = sync.Pool{New: func() any {
	b := make([]byte, 32<<10)
	return &b
}}

func copyBody(dst io.Writer, src io.Reader) {
	bp := proxyBufPool.Get().(*[]byte)
	_, _ = io.CopyBuffer(dst, src, *bp)
	proxyBufPool.Put(bp)
}

// serveWrite proxies a mutation to the discovered leader, streaming the
// body through. With no leader (election window) it waits briefly for a
// promotion to land, then answers 503 with Retry-After and the last known
// leader — never a silent proxy to a node that may no longer own the write
// path.
func (rt *Router) serveWrite(w http.ResponseWriter, r *http.Request) {
	rt.writes.Add(1)
	b := rt.leader()
	if b == nil {
		b = rt.awaitLeader(r.Context())
	}
	if b == nil {
		rt.writeUnrouted.Add(1)
		msg := "no leader available; election in progress"
		if last := rt.lastLeader.Load(); last != nil {
			msg += "; last known leader " + last.url
		}
		writeRouterError(w, http.StatusServiceUnavailable, msg, 1)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), 2*rt.cfg.BackendTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, r.Method, b.url+r.URL.RequestURI(), r.Body)
	if err != nil {
		writeRouterError(w, http.StatusBadGateway, err.Error(), 1)
		return
	}
	req.ContentLength = r.ContentLength
	copyProxyHeaders(req.Header, r.Header)
	resp, err := rt.client.Do(req)
	if err != nil {
		// The leader died under the write. The next probe sweep will eject
		// it and discover its successor; tell the client to retry rather
		// than surfacing a bare proxy error.
		b.failures.Add(1)
		b.ready.Store(false)
		rt.writeUnrouted.Add(1)
		writeRouterError(w, http.StatusServiceUnavailable,
			"leader unreachable, retry: "+err.Error(), 1)
		return
	}
	defer resp.Body.Close()
	hdr := w.Header()
	for k, vv := range resp.Header {
		hdr[k] = vv
	}
	hdr.Set(HeaderRoute, b.url)
	if hdr.Get(HeaderEpoch) == "" {
		if e := b.epoch.Load(); e > 0 {
			hdr.Set(HeaderEpoch, strconv.FormatUint(e, 10))
		}
	}
	w.WriteHeader(resp.StatusCode)
	b.served.Add(1)
	copyBody(w, resp.Body)
}

// hop-by-hop and validator headers never forwarded to a backend.
var dropHeaders = map[string]bool{
	"Connection":        true,
	"Keep-Alive":        true,
	"Upgrade":           true,
	"Transfer-Encoding": true,
	"Te":                true,
	"Trailer":           true,
	"If-None-Match":     true, // process-local ETags; see serveRead
	"If-Match":          true,
}

func copyProxyHeaders(dst, src http.Header) {
	for k, vv := range src {
		if dropHeaders[http.CanonicalHeaderKey(k)] {
			continue
		}
		dst[k] = append([]string(nil), vv...)
	}
}

// backendJSON is one member's state in the router health payload.
type backendJSON struct {
	URL      string                  `json:"url"`
	Leader   bool                    `json:"leader"`
	Role     string                  `json:"role"`
	Epoch    uint64                  `json:"epoch"`
	Ready    bool                    `json:"ready"`
	Seq      uint64                  `json:"seq"`
	Lag      uint64                  `json:"lag"`
	Served   uint64                  `json:"served"`
	Failures uint64                  `json:"failures"`
	Breaker  resilience.BreakerStats `json:"breaker"`
	LastErr  string                  `json:"last_error,omitempty"`
}

func (rt *Router) serveHealth(w http.ResponseWriter) {
	lead := rt.leader()
	members := make([]backendJSON, 0, len(rt.backends))
	readable := 0
	for _, b := range rt.backends {
		bj := backendJSON{
			URL: b.url, Leader: b == lead, Role: roleString(b.role.Load()),
			Epoch: b.epoch.Load(), Ready: b.ready.Load(),
			Seq: b.seq.Load(), Lag: rt.lag(b),
			Served: b.served.Load(), Failures: b.failures.Load(),
			Breaker: b.breaker.Stats(),
		}
		if msg := b.lastErr.Load(); msg != nil {
			bj.LastErr = *msg
		}
		if bj.Ready {
			readable++
		}
		members = append(members, bj)
	}
	status, code := "ok", http.StatusOK
	switch {
	case readable == 0:
		status, code = "degraded", http.StatusServiceUnavailable
	case lead == nil:
		status = "no-leader"
	}
	writeRouterJSON(w, code, map[string]any{
		"status":   status,
		"role":     "router",
		"backends": members,
		"stats": map[string]uint64{
			"reads":            rt.reads.Load(),
			"writes":           rt.writes.Load(),
			"read_retries":     rt.retries.Load(),
			"leader_fallbacks": rt.leaderFallbacks.Load(),
			"writes_unrouted":  rt.writeUnrouted.Load(),
			"backends_fenced":  rt.fenced.Load(),
		},
	})
}

func (rt *Router) serveReady(w http.ResponseWriter) {
	anyReady := false
	for _, b := range rt.backends {
		if b.ready.Load() {
			anyReady = true
			break
		}
	}
	if !anyReady {
		writeRouterJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "unready", "role": "router", "reasons": []string{"no backend ready"},
		})
		return
	}
	body := map[string]any{"status": "ready", "role": "router", "seq": rt.horizon()}
	if lead := rt.leader(); lead != nil {
		body["leader"] = lead.url
		body["epoch"] = lead.epoch.Load()
		body["seq"] = lead.seq.Load()
	}
	writeRouterJSON(w, http.StatusOK, body)
}

func writeRouterJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeRouterError mirrors the server's overload envelope: the standard
// {"error","retry_after_seconds"} body plus a Retry-After header.
func writeRouterError(w http.ResponseWriter, status int, msg string, retrySecs int) {
	w.Header().Set("Retry-After", strconv.Itoa(retrySecs))
	writeRouterJSON(w, status, map[string]any{
		"error":               msg,
		"retry_after_seconds": retrySecs,
	})
}
