package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"mte4jni/internal/analysis"
	"mte4jni/internal/pool"
)

// spinRequest builds a /run request carrying an inline spin program of n
// iterations, marshalled in the analysis JSON format the server parses.
func spinRequest(t *testing.T, n int64) RunRequest {
	t.Helper()
	raw, err := analysis.MarshalProgram(pool.SpinProgram(n))
	if err != nil {
		t.Fatal(err)
	}
	return RunRequest{Scheme: "sync", Program: raw}
}

// doRun posts a run and decodes the RunResponse at any status code (postRun
// only decodes 200s).
func doRun(t *testing.T, url string, req RunRequest) (int, RunResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding status-%d body: %v", resp.StatusCode, err)
	}
	return resp.StatusCode, out
}

// TestStepsExceededThroughServerPath is the fuel-exhaustion satellite: an
// inline program exceeding the step budget comes back as a structured
// steps-exceeded response (HTTP 200 — the request was served), is not
// reported as an MTE fault, and the session is recycled, not quarantined.
func TestStepsExceededThroughServerPath(t *testing.T) {
	s, ts := testServer(t, Config{StepBudget: 2000, Pool: pool.Config{MaxSessions: 1}})
	code, out := doRun(t, ts.URL, spinRequest(t, 1<<40))
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if out.OK || out.Abort != "steps_exceeded" || out.Fault != nil {
		t.Fatalf("response: %+v", out)
	}
	snap := s.Sink().Snapshot()
	if snap.StepsExceededTotal != 1 || snap.FaultsTotal != 0 || snap.ErrorsTotal != 0 {
		t.Fatalf("metrics: steps=%d faults=%d errors=%d",
			snap.StepsExceededTotal, snap.FaultsTotal, snap.ErrorsTotal)
	}
	st := s.Pool().Stats()
	if st.Quarantined != 0 || st.Retired != 0 || st.Idle != 1 {
		t.Fatalf("pool stats: %+v (session must be recycled, not quarantined)", st)
	}
	// The recycled session serves the next request warm.
	code, out2 := doRun(t, ts.URL, RunRequest{Scheme: "sync", Canned: "safe"})
	if code != http.StatusOK || !out2.OK || out2.Session != out.Session {
		t.Fatalf("recycled session not reused: %d %+v (was %s)", code, out2, out.Session)
	}
}

// TestRunTimeoutCutsOffRunawayProgram pins the -run-timeout behaviour: a
// runaway inline program is cut off by wall-clock deadline — not by its step
// budget — with a 504 and abort="deadline_exceeded", and the lease is
// counted dirty.
func TestRunTimeoutCutsOffRunawayProgram(t *testing.T) {
	s, ts := testServer(t, Config{
		RunTimeout: 150 * time.Millisecond,
		StepBudget: 1 << 40, // the deadline, not fuel, must end the run
		Pool:       pool.Config{MaxSessions: 1},
	})
	code, out := doRun(t, ts.URL, spinRequest(t, 1<<40))
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", code)
	}
	if out.Abort != "deadline_exceeded" || out.OK {
		t.Fatalf("response: %+v", out)
	}
	// The deadline, not fuel, ended the run.
	snap := s.Sink().Snapshot()
	if snap.DeadlineExceededTotal != 1 || snap.StepsExceededTotal != 0 || snap.FaultsTotal != 0 {
		t.Fatalf("metrics: %+v", snap)
	}
	st := s.Pool().Stats()
	if st.CanceledLeases != 1 || st.Quarantined != 0 {
		t.Fatalf("pool stats: %+v", st)
	}
	if st.Leased != 0 {
		t.Fatalf("leaked lease: %+v", st)
	}
}

// TestClientDisconnectCancelsRun proves r.Context() cancellation reaches the
// interpreter loop: the client walks away mid-run, the server aborts the
// run, counts it canceled, and the session is verifiably recycled.
func TestClientDisconnectCancelsRun(t *testing.T) {
	s, ts := testServer(t, Config{StepBudget: 1 << 40, Pool: pool.Config{MaxSessions: 1}})

	body, _ := json.Marshal(spinRequest(t, 1<<40))
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	// Disconnect only once the run holds its lease: a cancel that landed
	// before the lease would abort the request without a canceled lease.
	deadline := time.Now().Add(10 * time.Second)
	for s.Pool().Stats().Leased != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("run never leased a session: %+v", s.Pool().Stats())
		}
		time.Sleep(time.Millisecond)
	}
	cancel() // client disconnects
	if err := <-errc; err == nil {
		t.Fatal("canceled request returned no client error")
	}

	// The server observes the cancel asynchronously; poll until the
	// counters and the lease ledger settle.
	for {
		snap := s.Sink().Snapshot()
		st := s.Pool().Stats()
		if snap.CanceledTotal == 1 && st.Leased == 0 {
			if st.CanceledLeases != 1 {
				t.Fatalf("CanceledLeases = %d", st.CanceledLeases)
			}
			if snap.FaultsTotal != 0 || st.Quarantined != 0 {
				t.Fatalf("cancel misreported as fault: %+v %+v", snap, st)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancel never reconciled: snap=%+v stats=%+v", snap, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunResponseCarriesSpans pins the per-request tracing surface: a
// normal run reports edge/lease/exec/release spans and /metrics aggregates
// them per phase.
func TestRunResponseCarriesSpans(t *testing.T) {
	s, ts := testServer(t, Config{})
	code, out := doRun(t, ts.URL, spinRequest(t, 100))
	if code != http.StatusOK || !out.OK {
		t.Fatalf("%d %+v", code, out)
	}
	want := map[string]bool{"edge": false, "screen": false, "lease": false, "exec": false, "release": false}
	for _, sp := range out.Spans {
		if _, ok := want[sp.Phase]; ok {
			want[sp.Phase] = true
		}
		if sp.DurationNS < 0 {
			t.Fatalf("negative span: %+v", sp)
		}
	}
	for phase, seen := range want {
		if !seen {
			t.Fatalf("span %q missing from response: %+v", phase, out.Spans)
		}
	}
	snap := s.Sink().Snapshot()
	if len(snap.Spans) == 0 {
		t.Fatalf("metrics missing span aggregates")
	}
	for _, st := range snap.Spans {
		if st.Count == 0 {
			t.Fatalf("zero-count span stat: %+v", st)
		}
	}
}
