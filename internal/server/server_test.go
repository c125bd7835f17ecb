package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mte4jni"
	"mte4jni/internal/pool"
)

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Pool.MaxSessions == 0 {
		cfg.Pool.MaxSessions = 4
	}
	if cfg.Pool.HeapSize == 0 {
		cfg.Pool.HeapSize = 8 << 20
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

func postRun(t *testing.T, ts *httptest.Server, req RunRequest) (int, RunResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out RunResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, out
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func TestRunWorkloadEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	code, out := postRun(t, ts, RunRequest{Scheme: "sync", Workload: "PDF Renderer", Iterations: 2})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !out.OK || out.Fault != nil || out.Ret != 2 {
		t.Fatalf("response: %+v", out)
	}
	if out.Scheme != mte4jni.MTESync.String() || out.Session == "" {
		t.Fatalf("response: %+v", out)
	}
}

func TestRunCannedFaultReturnsStructuredReport(t *testing.T) {
	s, ts := testServer(t, Config{})
	code, out := postRun(t, ts, RunRequest{Scheme: "async", Canned: "oob"})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if out.OK || out.Fault == nil {
		t.Fatalf("expected fault report, got %+v", out)
	}
	f := out.Fault
	if f.Signature.PC == "" || f.Signature.Workload != "canned:oob" {
		t.Fatalf("fault signature incomplete: %+v", f.Signature)
	}
	if !f.Signature.Async {
		t.Fatal("async-scheme fault not marked async in signature")
	}
	if f.Kind == "" || f.Access == "" || f.Report == "" {
		t.Fatalf("fault detail incomplete: %+v", f)
	}
	// The faulting session must be quarantined, not reused.
	if st := s.Pool().Stats(); st.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", st.Quarantined)
	}

	// Under no protection the same probe silently corrupts instead.
	code, out = postRun(t, ts, RunRequest{Scheme: "none", Canned: "oob"})
	if code != http.StatusOK || !out.OK || out.Fault != nil {
		t.Fatalf("oob under none: code=%d %+v", code, out)
	}
}

func TestRunInlineProgram(t *testing.T) {
	_, ts := testServer(t, Config{})
	prog := `{
	  "method": {
	    "name": "inline",
	    "maxLocals": 1,
	    "maxRefs": 1,
	    "nativeNames": ["sum"],
	    "code": [
	      {"op": "const", "a": 8},
	      {"op": "newarray"},
	      {"op": "callnative"},
	      {"op": "const", "a": 11},
	      {"op": "return"}
	    ]
	  },
	  "natives": {"sum": {"kind": "regular", "minOffset": 0, "maxOffset": 31}}
	}`
	code, out := postRun(t, ts, RunRequest{Scheme: "sync", Program: json.RawMessage(prog)})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !out.OK || out.Ret != 11 || out.Workload != "inline" {
		t.Fatalf("response: %+v", out)
	}
}

func TestRunValidation(t *testing.T) {
	_, ts := testServer(t, Config{})
	for name, req := range map[string]RunRequest{
		"nothing selected": {},
		"two selected":     {Workload: "PDF Renderer", Canned: "safe"},
		"bad scheme":       {Scheme: "quantum", Canned: "safe"},
		"bad canned":       {Canned: "nope"},
		"bad scale":        {Workload: "PDF Renderer", Scale: "jumbo"},
		"bad program":      {Program: json.RawMessage(`{"method":{"name":"x","code":[{"op":"frobnicate"}]}}`)},
	} {
		if code, _ := postRun(t, ts, req); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
	// Malformed requests must not consume sessions or telemetry.
	var m MetricsResponse
	getJSON(t, ts, "/metrics", &m)
	if m.RequestsTotal != 0 || m.Pool.Created != 0 {
		t.Fatalf("validation failures consumed resources: %+v", m)
	}
}

func TestMetricsReconcile(t *testing.T) {
	_, ts := testServer(t, Config{})
	const safe, oob = 6, 3
	for i := 0; i < safe; i++ {
		if code, out := postRun(t, ts, RunRequest{Canned: "safe"}); code != 200 || !out.OK {
			t.Fatalf("safe run %d: code=%d %+v", i, code, out)
		}
	}
	for i := 0; i < oob; i++ {
		if code, out := postRun(t, ts, RunRequest{Canned: "oob"}); code != 200 || out.Fault == nil {
			t.Fatalf("oob run %d: code=%d %+v", i, code, out)
		}
	}
	var m MetricsResponse
	getJSON(t, ts, "/metrics", &m)
	if m.RequestsTotal != safe+oob || m.FaultsTotal != oob || m.ErrorsTotal != 0 {
		t.Fatalf("metrics: requests=%d faults=%d errors=%d", m.RequestsTotal, m.FaultsTotal, m.ErrorsTotal)
	}
	if m.Latency.Count != safe+oob {
		t.Fatalf("latency count = %d", m.Latency.Count)
	}
	// All three OOB faults are one bug: same PC, same workload, same mode.
	// (Tag pairs can vary across sessions, so allow 1..oob signatures but
	// require the total to reconcile.)
	var sigTotal uint64
	for _, sc := range m.Signatures {
		sigTotal += sc.Count
	}
	if sigTotal != oob || m.UniqueFaultSignatures == 0 {
		t.Fatalf("signature counts %d (unique %d), want total %d", sigTotal, m.UniqueFaultSignatures, oob)
	}
	if m.Pool.Quarantined != oob {
		t.Fatalf("pool quarantined = %d, want %d", m.Pool.Quarantined, oob)
	}
}

func TestSessionsAndHealthEndpoints(t *testing.T) {
	_, ts := testServer(t, Config{})
	// oob first: it quarantines its (fresh) session; the safe run then
	// creates the one session that survives idle.
	postRun(t, ts, RunRequest{Canned: "oob"})
	postRun(t, ts, RunRequest{Canned: "safe"})

	var sess SessionsResponse
	getJSON(t, ts, "/sessions", &sess)
	if len(sess.Sessions) != 1 || sess.Sessions[0].State != "idle" {
		t.Fatalf("sessions: %+v", sess.Sessions)
	}
	if len(sess.Quarantine) != 1 {
		t.Fatalf("quarantine: %+v", sess.Quarantine)
	}

	var h HealthResponse
	getJSON(t, ts, "/health", &h)
	if h.Status != "ok" || h.Capacity != 4 || h.Leased != 0 {
		t.Fatalf("health: %+v", h)
	}
}

// TestConcurrentRequestsWithFaultIsolation is the acceptance-criteria check
// in miniature: concurrent requests, some deliberately faulting, all
// completing with the right per-request verdict and reconciling totals.
func TestConcurrentRequestsWithFaultIsolation(t *testing.T) {
	_, ts := testServer(t, Config{Pool: pool.Config{MaxSessions: 8}})
	const n = 32
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := RunRequest{Canned: "safe"}
			if i%4 == 0 {
				req.Canned = "oob"
			}
			if i%2 == 0 {
				req.Scheme = "async"
			}
			code, out := postRunQuiet(ts, req)
			if code != http.StatusOK {
				errs <- fmt.Errorf("req %d: status %d", i, code)
				return
			}
			wantFault := req.Canned == "oob"
			if out.Faulted() != wantFault {
				errs <- fmt.Errorf("req %d (%s): fault=%v want %v", i, req.Canned, out.Faulted(), wantFault)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	var m MetricsResponse
	getJSON(t, ts, "/metrics", &m)
	if m.RequestsTotal != n || m.FaultsTotal != n/4 {
		t.Fatalf("metrics: requests=%d faults=%d, want %d/%d", m.RequestsTotal, m.FaultsTotal, n, n/4)
	}
}

// Faulted mirrors the client-side check the load generator performs.
func (r RunResponse) Faulted() bool { return r.Fault != nil }

func postRunQuiet(ts *httptest.Server, req RunRequest) (int, RunResponse) {
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, RunResponse{}
	}
	defer resp.Body.Close()
	var out RunResponse
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

// A sharded pool behind the server reports one stats row per shard, the rows
// reconcile with the pool totals, and graceful shutdown's per-shard drain
// assertion passes once traffic stops.
func TestServerShardedMetricsAndDrain(t *testing.T) {
	s, ts := testServer(t, Config{Pool: pool.Config{MaxSessions: 4, Shards: 2, HeapSize: 8 << 20}})

	for i := 0; i < 8; i++ {
		tenant := "shard-tenant-" + string(rune('a'+i))
		code, _ := postRun(t, ts, RunRequest{
			Scheme: "sync", Workload: "PDF Renderer", Iterations: 1, Tenant: tenant,
		})
		if code != 200 {
			t.Fatalf("request %d: status %d", i, code)
		}
	}

	var m MetricsResponse
	getJSON(t, ts, "/metrics", &m)
	if len(m.Pool.Shards) != 2 {
		t.Fatalf("shard rows = %d, want 2", len(m.Pool.Shards))
	}
	var leases, created, reused uint64
	for _, sh := range m.Pool.Shards {
		leases += sh.Leases
		created += sh.Created
		reused += sh.Reused
	}
	if leases != 8 {
		t.Fatalf("sum of shard leases = %d, want 8", leases)
	}
	if leases != created+reused {
		t.Fatalf("lease ledger broken: leases=%d created=%d reused=%d", leases, created, reused)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("sharded shutdown drain: %v", err)
	}
}
