package server

import (
	"net/http"
	"testing"
	"time"

	"mte4jni"
	"mte4jni/internal/pool"
)

// The canned attack probe is deterministic per scheme and drives the
// adversarial telemetry: probes always count, detections only under the
// MTE schemes.
func TestAttackProbeEndpoint(t *testing.T) {
	s, ts := testServer(t, Config{})

	cases := []struct {
		scheme   string
		detected bool
	}{
		{"sync", true},
		{"async", true},
		{"guarded", false},
		{"none", false},
	}
	for _, tc := range cases {
		code, out := postRun(t, ts, RunRequest{Scheme: tc.scheme, Canned: "attack"})
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", tc.scheme, code)
		}
		if detected := out.Fault != nil; detected != tc.detected {
			t.Fatalf("%s: fault=%v, want detected=%v", tc.scheme, out.Fault, tc.detected)
		}
		if out.Workload != "canned:attack" {
			t.Fatalf("%s: workload %q", tc.scheme, out.Workload)
		}
	}

	// One clean sync run, so at least one tagged session is alive in the
	// idle ring when /metrics is read below.
	if code, out := postRun(t, ts, RunRequest{Scheme: "sync", Canned: "safe"}); code != http.StatusOK || !out.OK {
		t.Fatalf("safe run: status %d, %+v", code, out)
	}

	var m MetricsResponse
	getJSON(t, ts, "/metrics", &m)
	if m.AttackProbesTotal != 4 {
		t.Fatalf("attack_probes_total = %d, want 4", m.AttackProbesTotal)
	}
	if m.DetectionsTotal != 2 {
		t.Fatalf("detections_total = %d, want 2 (sync + async)", m.DetectionsTotal)
	}
	if len(m.AttackSchemes) != 4 {
		t.Fatalf("attack_schemes rows = %d, want 4", len(m.AttackSchemes))
	}
	for _, sc := range m.AttackSchemes {
		want := 0.0
		if sc.Scheme == "MTE4JNI+Sync" || sc.Scheme == "MTE4JNI+Async" {
			want = 1.0
		}
		if sc.DetectionProbability != want {
			t.Fatalf("%s detection probability = %v, want %v", sc.Scheme, sc.DetectionProbability, want)
		}
	}
	// Both detections were first-probe detections.
	if len(m.ProbesToDetectBuckets) == 0 || m.ProbesToDetectBuckets[0] != 2 {
		t.Fatalf("probes_to_detect_buckets = %v, want 2 in the k<=1 bucket", m.ProbesToDetectBuckets)
	}
	// Detected probes count as faults and quarantine their session like any
	// other MTE fault.
	if m.FaultsTotal != 2 || m.Pool.Quarantined != 2 {
		t.Fatalf("faults=%d quarantined=%d, want 2/2", m.FaultsTotal, m.Pool.Quarantined)
	}
	// Each MTE session's Java heap gets its tag directory at map time: one
	// 8-byte entry per 16 KiB. Guarded and none sessions and every native
	// heap are untagged, and the quarantined sessions' directories left
	// with them, so the gauge is exactly the live MTE sessions' entries.
	// Every request released its session before answering, so the live
	// set read here is the one /metrics summed.
	mteLive := 0
	for _, si := range s.Pool().Sessions() {
		if si.Scheme == mte4jni.MTESync.String() || si.Scheme == mte4jni.MTEAsync.String() {
			mteLive++
		}
	}
	if mteLive == 0 {
		t.Fatal("no live MTE session after the clean sync run")
	}
	if want := uint64(mteLive) * (s.cfg.Pool.HeapSize / (16 << 10)) * 8; m.TagDirBytes != want {
		t.Fatalf("tag_dir_bytes = %d, want %d (%d live MTE sessions)", m.TagDirBytes, want, mteLive)
	}
}

// End-to-end escalation: a tenant hammering the attack probe is throttled
// and then refused with 429, and the /metrics pool counters reconcile
// exactly with the request history.
func TestTenantEscalationOverHTTP(t *testing.T) {
	_, ts := testServer(t, Config{
		Pool: pool.Config{
			MaxSessions: 2,
			HeapSize:    1 << 20,
			Defense: pool.DefenseConfig{
				DelayThreshold:      2,
				QuarantineThreshold: 4,
				Delay:               100 * time.Microsecond,
			},
		},
	})

	const attempts = 10
	refused := 0
	for i := 0; i < attempts; i++ {
		code, out := postRun(t, ts, RunRequest{Scheme: "sync", Canned: "attack", Tenant: "evil"})
		switch code {
		case http.StatusOK:
			if out.Fault == nil {
				t.Fatalf("attempt %d: probe undetected", i)
			}
		case http.StatusTooManyRequests:
			refused++
		default:
			t.Fatalf("attempt %d: status %d", i, code)
		}
	}
	if refused != attempts-4 {
		t.Fatalf("refused = %d, want %d (quarantine after 4 detected faults)", refused, attempts-4)
	}

	var m MetricsResponse
	getJSON(t, ts, "/metrics", &m)
	// Refused admissions never reach execution: requests_total counts only
	// the 4 served probes, and each one was detected.
	if m.RequestsTotal != 4 || m.DetectionsTotal != 4 || m.AttackProbesTotal != 4 {
		t.Fatalf("requests=%d detections=%d probes=%d, want 4/4/4",
			m.RequestsTotal, m.DetectionsTotal, m.AttackProbesTotal)
	}
	if m.Pool.ThrottledTotal != 2 {
		t.Fatalf("throttled_total = %d, want 2", m.Pool.ThrottledTotal)
	}
	if m.Pool.TenantsQuarantined != 1 {
		t.Fatalf("tenants_quarantined_total = %d, want 1", m.Pool.TenantsQuarantined)
	}
	if m.Pool.ReseedsTotal != 2 {
		t.Fatalf("reseeds_total = %d, want 2 (one per tier crossing)", m.Pool.ReseedsTotal)
	}
	// An honest tenant is unaffected by the quarantine.
	code, out := postRun(t, ts, RunRequest{Scheme: "sync", Workload: "PDF Renderer", Tenant: "honest"})
	if code != http.StatusOK || !out.OK {
		t.Fatalf("honest tenant: status %d, %+v", code, out)
	}
}

// Without the defense configured, tenant attribution is inert: no
// throttling, no refusals, no reseeds — the serving counters the smoke
// tests pin stay exactly as before.
func TestDefenseDisabledByDefault(t *testing.T) {
	_, ts := testServer(t, Config{})
	for i := 0; i < 6; i++ {
		code, out := postRun(t, ts, RunRequest{Scheme: "sync", Canned: "attack", Tenant: "evil"})
		if code != http.StatusOK || out.Fault == nil {
			t.Fatalf("attempt %d: status %d, %+v", i, code, out)
		}
	}
	var m MetricsResponse
	getJSON(t, ts, "/metrics", &m)
	if m.Pool.ThrottledTotal != 0 || m.Pool.TenantsQuarantined != 0 || m.Pool.ReseedsTotal != 0 {
		t.Fatalf("defense counters moved while disabled: %+v", m.Pool)
	}
	if m.AttackProbesTotal != 6 || m.DetectionsTotal != 6 {
		t.Fatalf("probes=%d detections=%d, want 6/6", m.AttackProbesTotal, m.DetectionsTotal)
	}
}
