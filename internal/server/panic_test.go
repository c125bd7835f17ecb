package server

import (
	"context"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mte4jni/internal/jni"
)

// TestNativePanicRetiresSession drives a Go panic out of a native body (the
// nativeHook injection point, armed for one call) through a served /run and
// checks that it is contained at the lease boundary: the request is
// answered 500, panics_total counts it, the session is retired rather than
// returned, the next request is served by a rebuilt session, and the lease
// ledger drains exactly at shutdown.
func TestNativePanicRetiresSession(t *testing.T) {
	var fired atomic.Bool
	nativeHook = func(*jni.Env) error {
		if fired.CompareAndSwap(false, true) {
			panic("injected native bug")
		}
		return nil
	}
	// Registered before testServer's cleanup, so it runs after the server
	// has stopped serving.
	t.Cleanup(func() { nativeHook = nil })
	s, ts := testServer(t, Config{})

	code, _ := postRun(t, ts, RunRequest{Scheme: "sync", Canned: "safe"})
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking run answered %d, want 500", code)
	}
	var m MetricsResponse
	getJSON(t, ts, "/metrics", &m)
	if m.PanicsTotal != 1 || m.ErrorsTotal != 1 || m.RequestsTotal != 1 {
		t.Fatalf("panics_total=%d errors_total=%d requests_total=%d, want 1/1/1",
			m.PanicsTotal, m.ErrorsTotal, m.RequestsTotal)
	}
	if m.Pool.Retired != 1 || m.Pool.Leased != 0 || m.Pool.Idle != 0 {
		t.Fatalf("pool after the panic: %+v, want one retired session and nothing leased or idle", m.Pool)
	}
	var sess SessionsResponse
	getJSON(t, ts, "/sessions", &sess)
	if len(sess.Quarantine) != 1 || !strings.Contains(sess.Quarantine[0].Reason, "native panic: injected native bug") {
		t.Fatalf("retirement log = %+v", sess.Quarantine)
	}

	code, out := postRun(t, ts, RunRequest{Scheme: "sync", Canned: "safe"})
	if code != http.StatusOK || !out.OK {
		t.Fatalf("run after the panic: status %d, %+v", code, out)
	}
	if got := s.Pool().Stats().Created; got != 2 {
		t.Fatalf("sessions created = %d, want 2 (the retired one and its rebuild)", got)
	}

	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown after a contained panic: %v", err)
	}
}
