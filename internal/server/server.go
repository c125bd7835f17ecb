// Package server implements the mte4jni serving daemon: an HTTP/JSON front
// end over the session pool (internal/pool) and the fault-telemetry sink
// (internal/report). It is the multi-tenant deployment shape of the paper's
// runtime — many mutually untrusting requests share one daemon, each runs in
// an isolated pooled VM under its chosen protection scheme, and an MTE fault
// comes back to its caller as a structured crash report while every other
// in-flight request is untouched.
//
// Endpoints (all JSON):
//
//	POST /run      — execute a workload, a bytecode program, or a canned
//	                 probe in a leased session
//	GET  /sessions — live sessions, pool stats, quarantine history
//	GET  /health   — liveness and uptime
//	GET  /metrics  — request/fault/latency counters and the deduplicated
//	                 fault-signature table
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"mte4jni"
	"mte4jni/internal/analysis"
	"mte4jni/internal/exec"
	"mte4jni/internal/jni"
	"mte4jni/internal/pool"
	"mte4jni/internal/report"
	"mte4jni/internal/workloads"
)

// nativeHook, when set by an in-package test, runs on the leased session as
// one native call through the JNI trampoline before the request's own work:
// the injection point for a Go panic in a native body.
var nativeHook jni.NativeFunc

// runContained runs a leased session's work and contains a Go panic from it
// — a bug in a native body or in the runtime, which the JNI trampoline
// re-raises because it is not a simulated signal. The panic value comes
// back as the second result; the caller retires the session.
func runContained(run func() *pool.RunResult) (res *pool.RunResult, panicked any) {
	defer func() {
		if r := recover(); r != nil {
			res, panicked = nil, r
		}
	}()
	return run(), nil
}

// StatusClientClosedRequest is the non-standard status (nginx's 499) a run
// ended by client disconnect is answered with — the connection is usually
// gone, but tests and proxies still see the distinction from 503/504.
const StatusClientClosedRequest = 499

// Config configures a Server.
type Config struct {
	// Pool sizes the session pool.
	Pool pool.Config
	// SinkCapacity bounds the fault ring (report.DefaultSinkCapacity when 0).
	SinkCapacity int
	// AcquireTimeout bounds how long a request waits for a session before
	// the server sheds it with 503 (default 5s).
	AcquireTimeout time.Duration
	// ScreenCacheSize bounds the admission-screen verdict cache
	// (analysis.DefaultScreenCacheSize when 0).
	ScreenCacheSize int
	// RunTimeout bounds one request end to end — lease wait included —
	// via the execution context's deadline. Expiry returns 504 with
	// abort="deadline_exceeded". Zero disables the per-run deadline.
	RunTimeout time.Duration
	// StepBudget bounds interpreter steps per inline-program run; exhaustion
	// returns 200 with abort="steps_exceeded" and the session is recycled,
	// not quarantined. Zero uses the interpreter's own default (1<<24).
	StepBudget int64
	// TemporalPolicy decides what to do with an inline program whose
	// temporal exposure class is live under the requested scheme's check
	// placement: reject (422, the default), force-sync (transparently
	// downgrade the run to MTE sync — per-access checking closes the
	// window), or log (count only). Empty means reject.
	TemporalPolicy analysis.TemporalPolicy
}

// Server is the serving daemon. Create with New, mount via Handler, stop
// with Shutdown.
type Server struct {
	cfg    Config
	pool   *pool.Pool
	sink   *report.Sink
	screen *analysis.ScreenCache
	start  time.Time
	http   *http.Server

	// safeElide lazily compiles the elision proofs for the canned "safe"
	// probe — once per server, outside the screened_total accounting (canned
	// probes are exempt from admission screening by design).
	safeElideOnce sync.Once
	safeElide     *analysis.Elision
}

// New builds a Server and its pool.
func New(cfg Config) *Server {
	if cfg.AcquireTimeout <= 0 {
		cfg.AcquireTimeout = 5 * time.Second
	}
	if cfg.TemporalPolicy == "" {
		cfg.TemporalPolicy = analysis.TemporalReject
	}
	s := &Server{
		cfg:    cfg,
		pool:   pool.New(cfg.Pool),
		sink:   report.NewSink(cfg.SinkCapacity),
		screen: analysis.NewScreenCache(cfg.ScreenCacheSize),
		start:  time.Now(),
	}
	// The admission policy is part of the screen-cache key: a verdict
	// computed under one policy is never served under another.
	s.screen.SetTemporalPolicy(cfg.TemporalPolicy)
	// /metrics pulls the tag-storage and data-plane gauges straight from the
	// pool's session spaces at snapshot time.
	s.sink.SetTagStatsProvider(func() report.TagTableStats {
		ts := s.pool.TagStats()
		return report.TagTableStats{
			TagPagesMaterialized: ts.PagesMaterialized,
			TagPagesUniform:      ts.PagesUniform,
			TagZeroDedupHits:     ts.ZeroDedupHits,
			TagDirBytes:          ts.DirBytes,
			TagBytesResident:     ts.BytesResident,
			TagBytesFlatEquiv:    ts.BytesFlatEquiv,

			DataPagesMaterialized: ts.DataPagesMaterialized,
			DataBytesResident:     ts.DataBytesResident,
			DataBytesMapped:       ts.DataBytesMapped,
		}
	})
	s.http = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
	}
	return s
}

// Pool exposes the session pool, for tests.
func (s *Server) Pool() *pool.Pool { return s.pool }

// Sink exposes the telemetry sink, for tests.
func (s *Server) Sink() *report.Sink { return s.sink }

// ScreenCache exposes the admission-screen verdict cache, for tests.
func (s *Server) ScreenCache() *analysis.ScreenCache { return s.screen }

// safeElision returns the compiled elision for the canned "safe" probe,
// screening it on first use. The probe is byte-stable, so one compilation
// serves every request; the screen bypasses the cache and the telemetry
// counters, keeping screened_total a pure inline-program metric.
func (s *Server) safeElision() *analysis.Elision {
	s.safeElideOnce.Do(func() {
		if v := analysis.Screen(pool.SafeProgram()); v.Verdict == analysis.VerdictSafe {
			s.safeElide = v.Elision
		}
	})
	return s.safeElide
}

// Handler returns the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", s.handleRun)
	mux.HandleFunc("/sessions", s.handleSessions)
	mux.HandleFunc("/health", s.handleHealth)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// Serve accepts connections on l until Shutdown.
func (s *Server) Serve(l net.Listener) error {
	err := s.http.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown gracefully drains in-flight requests, then closes the pool
// (unmapping every session's heaps; shards drain concurrently). After a
// clean HTTP drain every lease has been released, so the per-shard token
// ledgers must balance exactly — a drain imbalance is reported as a
// shutdown error rather than silently leaking a session.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.http.Shutdown(ctx)
	s.pool.Close()
	if err != nil {
		return err
	}
	return s.pool.AssertDrained()
}

// ParseScheme accepts both the paper's display names ("MTE4JNI+Sync") and
// the wire-friendly short forms used by the serve/load CLIs.
func ParseScheme(text string) (mte4jni.Scheme, error) {
	switch strings.ToLower(strings.TrimSpace(text)) {
	case "", "mte+sync", "mte-sync", "sync":
		return mte4jni.MTESync, nil
	case "mte+async", "mte-async", "async":
		return mte4jni.MTEAsync, nil
	case "none", "no-protection":
		return mte4jni.NoProtection, nil
	case "guarded", "guarded-copy", "guardedcopy":
		return mte4jni.GuardedCopy, nil
	}
	var sc mte4jni.Scheme
	if err := sc.UnmarshalText([]byte(text)); err != nil {
		return 0, fmt.Errorf("server: unknown scheme %q (try none, guarded, sync, async)", text)
	}
	return sc, nil
}

// placementForScheme maps a requested protection scheme to where its checks
// actually run — the placement the temporal exposure matrix is evaluated
// against. Sync checks per access and NoProtection never checks; neither is
// ever downgraded or rejected on temporal grounds.
func placementForScheme(sc mte4jni.Scheme) jni.CheckPlacement {
	switch sc {
	case mte4jni.MTESync:
		return jni.PlacePerAccess
	case mte4jni.MTEAsync:
		return jni.PlaceTrampolineExit
	case mte4jni.GuardedCopy:
		return jni.PlaceAtRelease
	}
	return jni.PlaceNever
}

// RunRequest is the POST /run body. Exactly one of Workload, Program or
// Canned selects what to execute.
type RunRequest struct {
	// Scheme selects the protection scheme (default MTE4JNI+Sync); see
	// ParseScheme for accepted spellings.
	Scheme string `json:"scheme,omitempty"`
	// Workload names a GeekBench-style built-in workload.
	Workload string `json:"workload,omitempty"`
	// Scale is "small" (default) or "default" (benchmark sizes).
	Scale string `json:"scale,omitempty"`
	// Iterations repeats the workload's native call (default 1).
	Iterations int `json:"iterations,omitempty"`
	// Program is an inline bytecode program in the analysis JSON format —
	// the same artifact `mte4jni lint` consumes.
	Program json.RawMessage `json:"program,omitempty"`
	// Canned selects a built-in probe: "safe" (never faults), "oob"
	// (deterministically faults under the MTE schemes), or "attack" (the
	// serving-tier red-team probe: one forged-tag store, detected under the
	// MTE schemes, landing silently under the others).
	Canned string `json:"canned,omitempty"`
	// Tenant attributes the request to a tenant for the pool's escalating
	// defense policy (per-tenant fault tracking, throttling, quarantine,
	// tag reseed). Empty bypasses the policy; it is a no-op unless the
	// server was started with the defense thresholds configured.
	Tenant string `json:"tenant,omitempty"`
}

// RunResponse is the POST /run reply. A fault is a successful HTTP exchange:
// the protection scheme did its job, and Fault carries the structured crash
// report the serving layer exists to deliver.
type RunResponse struct {
	Session    string `json:"session"`
	Scheme     string `json:"scheme"`
	Workload   string `json:"workload"`
	OK         bool   `json:"ok"`
	Ret        int64  `json:"ret,omitempty"`
	DurationNS int64  `json:"duration_ns"`
	Error      string `json:"error,omitempty"`
	// Abort distinguishes the policy cutoffs from faults and errors:
	// "canceled" (client disconnect, HTTP 499), "deadline_exceeded"
	// (-run-timeout, HTTP 504), "steps_exceeded" (fuel budget, HTTP 200 —
	// the request was served, the program was just cut off). Empty when the
	// run was not aborted.
	Abort string `json:"abort,omitempty"`
	// Spans are the request's lifecycle phase timings (edge → screen →
	// lease → exec → release) from the execution-context recorder.
	Spans []exec.Span         `json:"spans,omitempty"`
	Fault *report.FaultRecord `json:"fault,omitempty"`
	// ElidedSites counts the statically proven guard-free sites this run was
	// bound with; ElisionInvalidated reports the proofs fell back to checked
	// access mid-run. Both zero for runs without a compiled elision.
	ElidedSites        int  `json:"elided_sites,omitempty"`
	ElisionInvalidated bool `json:"elision_invalidated,omitempty"`
}

// RejectResponse is the 422 reply for a program the static admission screen
// proves will fault: the human-readable error plus the full machine-readable
// verdict (rule, pc, native, provenance chain).
type RejectResponse struct {
	Error   string                  `json:"error"`
	Verdict *analysis.ScreenVerdict `json:"verdict"`
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		jsonError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}

	// The execution context is born here, at the HTTP edge, and is the one
	// object threaded through screening, the pool lease, the session, the
	// JNI trampolines and the interpreter loop. It wraps r.Context(), so a
	// client disconnect cancels the whole chain; RunTimeout adds the per-run
	// deadline on top (covering lease wait too — a slow queue eats into the
	// same budget the run does).
	reqCtx := r.Context()
	if s.cfg.RunTimeout > 0 {
		var cancel context.CancelFunc
		reqCtx, cancel = context.WithTimeout(reqCtx, s.cfg.RunTimeout)
		defer cancel()
	}
	ec := exec.New(reqCtx, exec.Options{StepBudget: s.cfg.StepBudget})

	ec.Begin(exec.PhaseEdge)
	var req RunRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		// A disconnect racing the body read is a cancellation, not a bad
		// request — count it so the canceled_total delta stays exact no
		// matter which phase the cancel lands in.
		if ec.Canceled() != nil {
			s.sink.ObserveAbort(exec.AbortCanceled)
			jsonError(w, StatusClientClosedRequest, "client canceled during request read")
			return
		}
		jsonError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	scheme, err := ParseScheme(req.Scheme)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Resolve what to run before taking a session, so admission is never
	// consumed by malformed requests.
	var (
		prog     *analysis.Program
		elision  *analysis.Elision
		workload string
	)
	selected := 0
	if req.Workload != "" {
		selected++
		workload = req.Workload
	}
	if len(req.Program) > 0 {
		selected++
		// Static admission screen: inline programs the analyzer proves will
		// fault are rejected here with the structured verdict, before any
		// session is leased or quarantine slot risked. Canned probes are
		// deliberately exempt — they exist to exercise the runtime fault
		// path end to end.
		ec.Begin(exec.PhaseScreen)
		verdict, cacheHit, serr := s.screen.ScreenBytes(req.Program)
		ec.End(exec.PhaseScreen)
		if serr != nil {
			jsonError(w, http.StatusBadRequest, "bad program: %v", serr)
			return
		}
		s.sink.ObserveScreen(verdict.Rejected(), cacheHit)
		// Temporal enforcement: findings whose exposure class is live under
		// the requested scheme's check placement. Counted for every flagged
		// verdict (cache hits included); the policy acts only on admitted
		// programs — a provably-faulting program is the screen 422's to
		// reject, with the temporal findings riding along in the verdict.
		var exposedFinding *analysis.TemporalFinding
		if len(verdict.Temporal) > 0 {
			place := placementForScheme(scheme)
			classes := make([]string, 0, len(verdict.Temporal))
			for i := range verdict.Temporal {
				f := &verdict.Temporal[i]
				classes = append(classes, string(f.Class))
				if exposedFinding == nil && f.Class.ExposedUnder(place) {
					exposedFinding = f
				}
			}
			temporalReject := exposedFinding != nil && !verdict.Rejected() &&
				s.cfg.TemporalPolicy == analysis.TemporalReject
			s.sink.ObserveTemporal(classes, temporalReject)
		}
		if verdict.Rejected() {
			writeJSON(w, http.StatusUnprocessableEntity, RejectResponse{
				Error:   fmt.Sprintf("program rejected by static admission screen: %s", verdict.Reason),
				Verdict: verdict,
			})
			return
		}
		if exposedFinding != nil {
			switch s.cfg.TemporalPolicy {
			case analysis.TemporalReject:
				writeJSON(w, http.StatusUnprocessableEntity, RejectResponse{
					Error: fmt.Sprintf("program rejected by temporal screening (%s under %s): %s",
						exposedFinding.Class, scheme, exposedFinding.Reason),
					Verdict: verdict,
				})
				return
			case analysis.TemporalForceSync:
				// Per-access checking closes the window; the response's
				// scheme field reports the downgrade.
				scheme = mte4jni.MTESync
			}
		}
		// The screen parsed these bytes once; runs share that immutable
		// parse. A safe verdict carries its compiled elision proofs; binding
		// them to the program is re-validated inside RunProgramElided.
		prog = verdict.Program
		elision = verdict.Elision
		workload = prog.Method.Name
	}
	attack := false
	if req.Canned != "" {
		selected++
		switch req.Canned {
		case "safe":
			prog = pool.SafeProgram()
			elision = s.safeElision()
		case "oob":
			prog = pool.OOBProgram()
		case "attack":
			attack = true
		default:
			jsonError(w, http.StatusBadRequest, "unknown canned probe %q (safe, oob, attack)", req.Canned)
			return
		}
		workload = "canned:" + req.Canned
	}
	if selected != 1 {
		jsonError(w, http.StatusBadRequest, "exactly one of workload, program, canned must be set")
		return
	}
	scale := workloads.ScaleSmall
	switch req.Scale {
	case "", "small":
	case "default":
		scale = workloads.ScaleDefault
	default:
		jsonError(w, http.StatusBadRequest, "unknown scale %q (small, default)", req.Scale)
		return
	}
	ec.End(exec.PhaseEdge)

	// The acquire timeout layers on the execution context, so whichever
	// expires first — queue-shed deadline, run deadline, client disconnect —
	// ends the wait; errIsOverload below tells the cases apart.
	acquireCtx, cancel := context.WithTimeout(ec, s.cfg.AcquireTimeout)
	defer cancel()
	start := time.Now()
	ec.Begin(exec.PhaseLease)
	sess, err := s.pool.AcquireFor(acquireCtx, scheme, req.Tenant)
	ec.End(exec.PhaseLease)
	if err != nil {
		switch {
		case errors.Is(err, pool.ErrTenantQuarantined):
			// The escalating defense refused this tenant before any token
			// was taken: the refusal is free for the pool and costly for
			// the attacker.
			jsonError(w, http.StatusTooManyRequests, "tenant quarantined: %v", err)
		case exec.Classify(ec.Err()) == exec.AbortDeadline:
			s.sink.ObserveAbort(exec.AbortDeadline)
			jsonError(w, http.StatusGatewayTimeout, "run timeout while waiting for a session: %v", err)
		case exec.Classify(ec.Err()) == exec.AbortCanceled:
			s.sink.ObserveAbort(exec.AbortCanceled)
			jsonError(w, StatusClientClosedRequest, "client canceled while waiting for a session")
		case errors.Is(err, pool.ErrOverloaded), errors.Is(err, context.DeadlineExceeded):
			jsonError(w, http.StatusServiceUnavailable, "overloaded: %v", err)
		case errors.Is(err, pool.ErrClosed):
			jsonError(w, http.StatusServiceUnavailable, "shutting down")
		default:
			jsonError(w, http.StatusInternalServerError, "acquire: %v", err)
		}
		return
	}
	ec.Begin(exec.PhaseExec)
	res, panicked := runContained(func() *pool.RunResult {
		if nativeHook != nil {
			_, _ = sess.Env().CallNative("nativeHook", jni.Regular, nativeHook)
		}
		switch {
		case attack:
			return sess.RunAttackProbe(ec)
		case prog != nil:
			return sess.RunProgramElided(ec, prog, elision)
		default:
			return sess.RunWorkload(ec, workload, scale, req.Iterations)
		}
	})
	ec.End(exec.PhaseExec)
	if panicked != nil {
		// The lease ends here either way: the session is retired rather
		// than released, so its token returns and the ledger stays exact.
		ec.Begin(exec.PhaseRelease)
		s.pool.Retire(sess, fmt.Sprintf("native panic: %v", panicked))
		ec.End(exec.PhaseRelease)
		s.sink.ObservePanic()
		s.sink.ObserveSpans(ec.Spans())
		s.sink.ObserveRequest(time.Since(start), false, true)
		jsonError(w, http.StatusInternalServerError, "native panic in session %s: %v", sess.Name(), panicked)
		return
	}
	abort := exec.Classify(res.Err)
	resp := RunResponse{
		Session:            sess.Name(),
		Scheme:             scheme.String(),
		Workload:           workload,
		OK:                 !res.Faulted() && res.Err == nil,
		Ret:                res.Ret,
		DurationNS:         res.Duration.Nanoseconds(),
		Abort:              abort.String(),
		ElidedSites:        res.ElidedSites,
		ElisionInvalidated: res.ElisionInvalidated,
	}
	if res.ElidedSites > 0 || res.ElisionInvalidated {
		s.sink.ObserveElision(uint64(res.ElidedSites), res.ElisionInvalidated)
	}
	if res.Err != nil {
		resp.Error = res.Err.Error()
	}
	if res.Faulted() {
		rec, _ := s.sink.RecordFault(sess.Name(), workload, res.Fault)
		resp.Fault = &rec
		// Per-tenant fault attribution feeds the escalation state machine
		// for every faulting run, not just the canned attack probe — a real
		// brute-forcer ships its own programs.
		s.pool.ObserveFault(req.Tenant)
	}
	if attack {
		s.sink.ObserveAttackProbe(scheme.String(), 1, res.Faulted(), res.Duration)
	}
	ec.Begin(exec.PhaseRelease)
	s.pool.Release(sess)
	ec.End(exec.PhaseRelease)

	resp.Spans = ec.Spans()
	s.sink.ObserveAbort(abort)
	s.sink.ObserveSpans(resp.Spans)
	// Aborts carry their own counters; failed counts only genuine errors.
	s.sink.ObserveRequest(time.Since(start), res.Faulted(), res.Err != nil && abort == exec.AbortNone)
	status := http.StatusOK
	switch abort {
	case exec.AbortCanceled:
		// The client is almost certainly gone; the status is for proxies,
		// tests and logs.
		status = StatusClientClosedRequest
	case exec.AbortDeadline:
		status = http.StatusGatewayTimeout
	}
	writeJSON(w, status, resp)
}

// SessionsResponse is the GET /sessions reply.
type SessionsResponse struct {
	Stats      pool.Stats              `json:"stats"`
	Sessions   []pool.SessionInfo      `json:"sessions"`
	Quarantine []pool.QuarantineRecord `json:"quarantine,omitempty"`
}

func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, SessionsResponse{
		Stats:      s.pool.Stats(),
		Sessions:   s.pool.Sessions(),
		Quarantine: s.pool.Quarantined(),
	})
}

// HealthResponse is the GET /health reply.
type HealthResponse struct {
	Status   string `json:"status"`
	UptimeNS int64  `json:"uptime_ns"`
	Capacity int    `json:"capacity"`
	Leased   int    `json:"leased"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := s.pool.Stats()
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:   "ok",
		UptimeNS: time.Since(s.start).Nanoseconds(),
		Capacity: st.Capacity,
		Leased:   st.Leased,
	})
}

// MetricsResponse is the GET /metrics reply: the telemetry snapshot plus the
// pool's own accounting, one reconciliation surface for load generators.
type MetricsResponse struct {
	report.TelemetrySnapshot
	Pool pool.Stats `json:"pool"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, MetricsResponse{
		TelemetrySnapshot: s.sink.Snapshot(),
		Pool:              s.pool.Stats(),
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func jsonError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
