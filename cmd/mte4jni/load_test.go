package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"mte4jni/internal/pool"
	"mte4jni/internal/server"
)

// loadServer starts an in-process daemon behind an HTTP test server and
// returns its base URL.
func loadServer(t *testing.T, cfg server.Config) string {
	t.Helper()
	cfg.Pool.MaxSessions = max(cfg.Pool.MaxSessions, 4)
	cfg.Pool.HeapSize = 8 << 20
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return ts.URL
}

// load runs `mte4jni load` against url and fails the test on any wrong
// verdict, transport error or /metrics mismatch.
func load(t *testing.T, url string, args ...string) {
	t.Helper()
	if err := runLoad(append([]string{"-url", url}, args...)); err != nil {
		t.Fatal(err)
	}
}

// TestLoadOutcomesPerScheme holds every scheme to the paper's outcome for
// each request kind whose outcome depends on it: the safe probe runs clean
// with its proven site guard-free everywhere; the one-past-the-end store
// lands silently with no protection, is caught at release by guarded copy's
// canary and faults with a quarantine under MTE; the forged-tag attack probe
// is detected exactly under MTE, where the escalation ladder then throttles,
// reseeds and finally refuses the tenant. A workload runs clean under each.
func TestLoadOutcomesPerScheme(t *testing.T) {
	for _, scheme := range []string{"none", "guarded", "sync", "async"} {
		t.Run(scheme, func(t *testing.T) {
			url := loadServer(t, server.Config{Pool: pool.Config{Defense: pool.DefenseConfig{
				DelayThreshold: 2, QuarantineThreshold: 4, Delay: 100 * time.Microsecond,
			}}})
			// 24 requests: 12 attacks (under MTE 2 admitted, 2 throttled,
			// 8 refused), 4 stores, 8 safe probes.
			load(t, url, "-scheme", scheme, "-n", "24", "-c", "1", "-fault-every", "3",
				"-attack-rate", "2", "-attack-delay-threshold", "2", "-attack-quarantine-threshold", "4")
			load(t, url, "-scheme", scheme, "-n", "4", "-c", "2", "-workload", "PDF Renderer")
		})
	}
}

// TestLoadScreenAndAbortKinds runs each scheme-independent kind once: the
// reject corpus (422 with a structured verdict), the temporal corpus
// (flagged with its window class and full chain), a client that walks away
// mid-run (counted canceled) and a runaway the run deadline cuts off (504).
func TestLoadScreenAndAbortKinds(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  server.Config
		args []string
	}{
		{"reject", server.Config{}, []string{"-n", "9", "-c", "3", "-reject-rate", "2"}},
		{"temporal", server.Config{}, []string{"-n", "8", "-c", "4", "-temporal-rate", "1"}},
		{"cancel", server.Config{StepBudget: 1 << 40}, []string{"-n", "2", "-c", "2", "-cancel-rate", "2"}},
		{"deadline", server.Config{RunTimeout: 50 * time.Millisecond, StepBudget: 1 << 40},
			[]string{"-n", "2", "-c", "2", "-deadline-rate", "2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			load(t, loadServer(t, tc.cfg), tc.args...)
		})
	}
}

// TestLoadShardedAndOpenLoop runs the per-shard ledger and balance checks
// on a sharded pool, closed loop and then open loop under a p99 budget with
// a JSON report.
func TestLoadShardedAndOpenLoop(t *testing.T) {
	url := loadServer(t, server.Config{Pool: pool.Config{MaxSessions: 8, Shards: 4}})
	load(t, url, "-n", "32", "-c", "8", "-tenants", "8", "-fault-every", "8")
	report := filepath.Join(t.TempDir(), "report.json")
	load(t, url, "-n", "20", "-rate", "500", "-tenants", "4", "-slo-p99", "5s", "-report", report)
	raw, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep loadReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.OpenLoop || rep.Verified["safe"] != 20 || rep.WrongVerdicts != 0 || rep.SLOP99Met == nil || !*rep.SLOP99Met {
		t.Fatalf("report: %s", raw)
	}
}

// TestReconcileNamesTheOffField gives the reconciler two /metrics documents
// and a tally with one field off by one: the error names that field, its
// change and the range, and no other field.
func TestReconcileNamesTheOffField(t *testing.T) {
	before := flat(t, `{"requests_total": 10, "faults_total": 2, "pool": {"quarantined": 2, "shards": [{"leased": 0}]}}`)
	after := flat(t, `{"requests_total": 14, "faults_total": 3, "pool": {"quarantined": 4, "shards": [{"leased": 0}]}}`)
	want := deltas{"requests_total": {4, 4}, "faults_total": one, "pool.quarantined": one}
	err := reconcile(before, after, want)
	if err == nil || !strings.Contains(err.Error(), "pool.quarantined: got +2, want [1, 1]") ||
		strings.Contains(err.Error(), "requests_total") || strings.Contains(err.Error(), "faults_total") {
		t.Fatalf("reconcile: %v", err)
	}
	want["pool.quarantined"] = span{2, 2}
	if err := reconcile(before, after, want); err != nil {
		t.Fatal(err)
	}
	want["errors_total"] = span{}
	if err := reconcile(before, after, want); err == nil || !strings.Contains(err.Error(), "errors_total: not in /metrics") {
		t.Fatalf("missing field: %v", err)
	}
}

// TestReconcileCancelRange checks a cancel's tolerance at both ends: two
// safe probes and three abandoned runaways may move requests_total by 2 to
// 5, and canceled_total by exactly 3.
func TestReconcileCancelRange(t *testing.T) {
	safe := deltas{"requests_total": one}
	canceled := deltas{"requests_total": upToOne, "canceled_total": one}
	want := deltas{}
	for _, d := range []deltas{safe, safe, canceled, canceled, canceled} {
		want.add(d)
	}
	before := flat(t, `{"requests_total": 100, "canceled_total": 7}`)
	for requests, ok := range map[int]bool{101: false, 102: true, 105: true, 106: false} {
		after := flat(t, `{"requests_total": `+strconv.Itoa(requests)+`, "canceled_total": 10}`)
		err := reconcile(before, after, want)
		if ok != (err == nil) || !ok && !strings.Contains(err.Error(), "requests_total: got ") {
			t.Fatalf("requests_total at %d: %v", requests, err)
		}
	}
	after := flat(t, `{"requests_total": 104, "canceled_total": 9}`)
	if err := reconcile(before, after, want); err == nil || !strings.Contains(err.Error(), "canceled_total: got +2, want [3, 3]") {
		t.Fatalf("canceled_total short by one: %v", err)
	}
}

func flat(t *testing.T, doc string) map[string]int64 {
	t.Helper()
	m, err := flatten([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return m
}
