package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"mte4jni"
	"mte4jni/internal/analysis"
	"mte4jni/internal/exec"
	"mte4jni/internal/pool"
	"mte4jni/internal/report"
	"mte4jni/internal/server"
)

// serveDefaults is the server configuration `mte4jni serve` starts with when
// given no flags.
func serveDefaults() server.Config {
	return server.Config{
		Pool: pool.Config{
			MaxSessions: 64,
			Shards:      1,
			HeapSize:    32 << 20,
			Seed:        1,
			Defense:     pool.DefenseConfig{Delay: time.Millisecond},
		},
		SinkCapacity:   report.DefaultSinkCapacity,
		AcquireTimeout: 5 * time.Second,
		TemporalPolicy: analysis.TemporalReject,
	}
}

var schemeValues = [4]mte4jni.Scheme{mte4jni.NoProtection, mte4jni.GuardedCopy, mte4jni.MTESync, mte4jni.MTEAsync}

// daemon is the in-process server on a loopback listener plus one
// keep-alive client per connection.
type daemon struct {
	srv     *server.Server
	url     string
	clients [conns]*http.Client
	served  chan error
}

func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{srv: server.New(serveDefaults()), url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { d.served <- d.srv.Serve(ln) }()
	for c := range d.clients {
		d.clients[c] = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}}
	}
	return d, nil
}

// stop drains the server, checks its lease ledger, and waits for Serve.
func (d *daemon) stop() error {
	for _, c := range d.clients {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.served; err == nil {
		err = serr
	}
	return err
}

// reply is the part of a /run response (200 or 422) the oracle reads.
type reply struct {
	OK          bool        `json:"ok"`
	Ret         int64       `json:"ret"`
	Error       string      `json:"error"`
	Fault       *struct{}   `json:"fault"`
	ElidedSites int         `json:"elided_sites"`
	Spans       []exec.Span `json:"spans"`
	Verdict     *struct {
		Rule string `json:"rule"`
	} `json:"verdict"`
}

// post sends one /run on connection c.
func (d *daemon) post(c int, body []byte) (int, []byte, error) {
	resp, err := d.clients[c].Post(d.url+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// check compares a reply with the request's expected outcome.
func check(status int, raw []byte, want outcome) (reply, error) {
	var r reply
	if status != want.status {
		return r, fmt.Errorf("status %d, want %d: %.200s", status, want.status, raw)
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, fmt.Errorf("decoding reply: %w", err)
	}
	return r, checkReply(r, want)
}

func checkReply(r reply, want outcome) error {
	switch {
	case want.status == http.StatusUnprocessableEntity:
		if r.Verdict == nil || r.Verdict.Rule != want.rule {
			return fmt.Errorf("422 without verdict rule %q", want.rule)
		}
	case r.OK != want.ok:
		return fmt.Errorf("ok=%v, want %v (error %q)", r.OK, want.ok, r.Error)
	case want.ok && r.Ret != want.ret:
		return fmt.Errorf("ret=%d, want %d", r.Ret, want.ret)
	case want.fault != (r.Fault != nil):
		return fmt.Errorf("fault record present=%v, want %v", r.Fault != nil, want.fault)
	case !strings.Contains(r.Error, want.errHas):
		return fmt.Errorf("error %q does not name %q", r.Error, want.errHas)
	case want.ok && r.Error != "":
		return fmt.Errorf("unexpected error %q", r.Error)
	}
	return nil
}

// setUp brings a fresh daemon to the state every timed window starts from:
// it builds every scheme's session through the pool, has each connection send
// one warm request per kind and per scheme it owns, builds through the pool
// again any session a warm probe quarantined, and forces a GC. It returns the
// daemon, the wall time taken and the duration of each initial build.
func setUp(w *workload, seed int64) (*daemon, time.Duration, []time.Duration, error) {
	start := time.Now()
	d, err := startDaemon()
	if err != nil {
		return nil, 0, nil, err
	}
	fail := func(err error) (*daemon, time.Duration, []time.Duration, error) {
		d.stop()
		return nil, 0, nil, err
	}
	p := d.srv.Pool()
	// leaseAll leases and releases one session of every scheme, building
	// any the pool lacks, and times each lease.
	leaseAll := func() ([]time.Duration, error) {
		var took []time.Duration
		for _, sc := range schemeValues {
			t0 := time.Now()
			s, err := p.AcquireFor(context.Background(), sc, "")
			if err != nil {
				return nil, fmt.Errorf("building %v session: %w", sc, err)
			}
			took = append(took, time.Since(t0))
			p.Release(s)
		}
		return took, nil
	}
	builds, err := leaseAll()
	if err != nil {
		return fail(err)
	}
	var (
		wg   sync.WaitGroup
		errs [conns]error
	)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed ^ 0x5e7c0de + int64(c)))
			for k := range w.kinds {
				for i, scheme := range connSchemes[c] {
					r := w.build(k, scheme, rng, -1-(k*conns+c)*len(schemeNames)-i)
					status, raw, err := d.post(c, r.body)
					if err == nil {
						_, err = check(status, raw, r.want)
					}
					if err != nil {
						errs[c] = fmt.Errorf("warm %s/%s: %w", w.kinds[k], schemeNames[scheme], err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fail(err)
		}
	}
	if _, err := leaseAll(); err != nil {
		return fail(err)
	}
	if st := p.Stats(); st.Idle != len(schemeValues) || st.Leased != 0 {
		return fail(fmt.Errorf("set-up left %d idle and %d leased sessions, want %d idle", st.Idle, st.Leased, len(schemeValues)))
	}
	runtime.GC()
	return d, time.Since(start), builds, nil
}

// sample is one completed request of the timed window; end is its
// completion time since the window opened.
type sample struct {
	kind, scheme int
	lat, end     time.Duration
	good         bool
}

// tally is what the client knows the server must have counted.
type tally struct {
	attempted, good   int
	served            int // requests that reached execution (not 422)
	faults, errors    int
	screened, rejects int
	cacheHits         int
	builds, leases    int
	quarantines       int
	elidedSites       int
	perKind           map[string]map[string]int // kind → outcome → count
	firstErr          error
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.good += o.good
	t.served += o.served
	t.faults += o.faults
	t.errors += o.errors
	t.screened += o.screened
	t.rejects += o.rejects
	t.cacheHits += o.cacheHits
	t.builds += o.builds
	t.leases += o.leases
	t.quarantines += o.quarantines
	t.elidedSites += o.elidedSites
	if t.perKind == nil {
		t.perKind = map[string]map[string]int{}
	}
	for k, m := range o.perKind {
		if t.perKind[k] == nil {
			t.perKind[k] = map[string]int{}
		}
		for out, n := range m {
			t.perKind[k][out] += n
		}
	}
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// connLoop runs one closed-loop client until the deadline: it sends the
// connection's next request only after the previous reply has arrived.
func connLoop(d *daemon, w *workload, src *source, c int, start, deadline time.Time) ([]sample, tally) {
	var (
		out     []sample
		t       = tally{perKind: map[string]map[string]int{}}
		pending [4]bool // scheme whose session this connection's last lease quarantined
	)
	for time.Now().Before(deadline) {
		r := src.next()
		t0 := time.Now()
		status, raw, err := d.post(c, r.body)
		t1 := time.Now()
		lat := t1.Sub(t0)
		var rep reply
		if err == nil {
			rep, err = check(status, raw, r.want)
		}
		t.attempted++
		out = append(out, sample{kind: r.kind, scheme: r.scheme, lat: lat, end: t1.Sub(start), good: err == nil})
		name := outcomeName(r.want)
		if err != nil {
			name = "wrong"
			if t.firstErr == nil {
				t.firstErr = fmt.Errorf("%s/%s: %w", w.kinds[r.kind], schemeNames[r.scheme], err)
			}
		} else {
			t.good++
		}
		if t.perKind[w.kinds[r.kind]] == nil {
			t.perKind[w.kinds[r.kind]] = map[string]int{}
		}
		t.perKind[w.kinds[r.kind]][name]++
		// Expected server-side counts follow from the request alone.
		if r.prog != nil || r.want.status == http.StatusUnprocessableEntity {
			t.screened++
			if r.want.cached {
				t.cacheHits++
			}
		}
		if r.want.status == http.StatusUnprocessableEntity {
			t.rejects++
			continue
		}
		t.served++
		t.leases++
		if pending[r.scheme] {
			t.builds++
			pending[r.scheme] = false
		}
		if r.want.fault {
			t.faults++
			t.quarantines++
			pending[r.scheme] = true
		}
		if r.want.errHas != "" {
			t.errors++
		}
		t.elidedSites += rep.ElidedSites
	}
	return out, t
}

func outcomeName(o outcome) string {
	switch {
	case o.status == http.StatusUnprocessableEntity:
		return "rejected_422"
	case o.fault:
		return "fault"
	case o.errHas != "":
		return "canary_error"
	}
	return "ok"
}

// counters is the reconciliation surface: /metrics plus pool.Stats().
type counters struct {
	Requests, Faults, Errors, Screened, Rejected, CacheHits, Elided uint64
	Created, Reused, Quarantined, Retired                           uint64
}

func (d *daemon) counters() (counters, error) {
	resp, err := http.Get(d.url + "/metrics")
	if err != nil {
		return counters{}, err
	}
	defer resp.Body.Close()
	var m server.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return counters{}, fmt.Errorf("decoding /metrics: %w", err)
	}
	ps := d.srv.Pool().Stats()
	if ps.Created != m.Pool.Created || ps.Quarantined != m.Pool.Quarantined {
		return counters{}, fmt.Errorf("/metrics pool %+v disagrees with pool.Stats %+v", m.Pool, ps)
	}
	return counters{
		Requests: m.RequestsTotal, Faults: m.FaultsTotal, Errors: m.ErrorsTotal,
		Screened: m.ScreenedTotal, Rejected: m.ScreenRejectedTotal, CacheHits: m.ScreenCacheHits,
		Elided:  m.ElidedSitesTotal,
		Created: ps.Created, Reused: ps.Reused, Quarantined: ps.Quarantined, Retired: ps.Retired,
	}, nil
}

// reconcile checks the server's counter deltas against the client's tally.
func reconcile(a, b counters, t tally) error {
	checks := []struct {
		name      string
		got, want uint64
	}{
		{"requests_total", b.Requests - a.Requests, uint64(t.served)},
		{"faults_total", b.Faults - a.Faults, uint64(t.faults)},
		{"errors_total", b.Errors - a.Errors, uint64(t.errors)},
		{"screened_total", b.Screened - a.Screened, uint64(t.screened)},
		{"screen_rejected_total", b.Rejected - a.Rejected, uint64(t.rejects)},
		{"screen_cache_hits", b.CacheHits - a.CacheHits, uint64(t.cacheHits)},
		{"elided_sites_total", b.Elided - a.Elided, uint64(t.elidedSites)},
		{"pool created", b.Created - a.Created, uint64(t.builds)},
		{"pool reused", b.Reused - a.Reused, uint64(t.leases - t.builds)},
		{"pool quarantined", b.Quarantined - a.Quarantined, uint64(t.quarantines)},
		{"pool retired", b.Retired - a.Retired, 0},
	}
	for _, c := range checks {
		if c.got != c.want {
			return fmt.Errorf("reconcile %s: server counted %d, client expects %d", c.name, c.got, c.want)
		}
	}
	return nil
}
