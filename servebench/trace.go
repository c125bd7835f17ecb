package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"mte4jni/internal/analysis"
	"mte4jni/internal/bench"
	"mte4jni/internal/exec"
	"mte4jni/internal/interp"
	"mte4jni/internal/jni"
	"mte4jni/internal/mte"
	"mte4jni/internal/pool"
	"mte4jni/internal/vm"
	"mte4jni/internal/workloads"
)

// The traced replay. It serves each seeded request through the server's
// handler on an in-memory recorder (the server layer's inclusive time), then
// makes the calls the handler makes for that request, in the handler's order,
// on the server's own screen cache, pool and sink, each inside a span. The
// execution itself is decomposed into the session's Env() calls: an inline
// program runs in an interpreter with each native body timed, a geekbench
// item's Setup, Run and Verify are timed one by one. After the handler's
// calls, a second, untimed lease of the same scheme replays the program's
// first native calls with a span per JNI entry point and a batch of checked
// byte accesses. Counters are read before and after the calls that move them.

// span is one timed call. Times are nanoseconds since the replay began.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

type tracer struct {
	t0    time.Time
	spans []span
	req   int
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), End: -1, Parent: parent, Req: t.req})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) time.Duration {
	t.spans[i].End = int64(time.Since(t.t0))
	return time.Duration(t.spans[i].End - t.spans[i].Start)
}

// now is the time since the replay began. It reads only the monotonic
// clock, half the cost of time.Now.
func (t *tracer) now() time.Duration { return time.Since(t.t0) }

// add records a span timed by the caller with now and returns its index.
func (t *tracer) add(name string, parent int, start, end time.Duration) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(start), End: int64(end), Parent: parent, Req: t.req})
	return len(t.spans) - 1
}

// maxSpannedCalls caps the native calls per request replayed with a span per
// JNI entry point. It covers one full round of the jni-handout program.
const maxSpannedCalls = 12

// checkedAccesses is the size of the byte array the checked-access batch
// loads and stores once each.
const checkedAccesses = 4096

// traced is one replayed request's measurements.
type traced struct {
	kind, scheme int
	serve        time.Duration
	phase        map[string]time.Duration // the server's own spans (RunResponse.Spans)
	call         map[string]time.Duration // the replayed handler calls, by phase
	own          map[string]time.Duration // below-session own work, by layer
	ownScale     float64                  // request's native calls ÷ calls replayed with spans
	spanned      int                      // native calls replayed with spans
	interpreted  bool                     // the exec ran in the replay's own interpreter
	native       time.Duration            // time inside the exec's native bodies
	nativeCalls  int                      // native calls the exec made
	access       time.Duration            // checked-access batch
	built        bool                     // the replayed lease built a session
	servedBuilt  bool                     // the served request's lease built a session
	steps        int64
	tagAllocs    int64
	granules     int64
	tagReleases  int64
	copied       int64
	tagPages     uint64
}

type traceResult struct {
	metrics map[string]metric
	record  map[string]any
	err     error
}

// maxTraced bounds the replay so its span file stays small.
const maxTraced = 2000

// replay runs the traced replay for at most d and derives the per-layer
// metrics from it and from the untraced window.
func replay(dm *daemon, w *workload, srcs [conns]*source, d time.Duration, win *window, by [][4][]float64, builds []time.Duration) (*traceResult, error) {
	resident := dm.srv.Pool().TagStats().BytesResident
	tr := &tracer{t0: time.Now()}
	h := dm.srv.Handler()
	var reqs []traced
	deadline := time.Now().Add(d)
	var failure error
	for i := 0; i < maxTraced && time.Now().Before(deadline); i++ {
		r := srcs[i%conns].next()
		tr.req = i
		t, err := traceOne(dm, h, tr, r)
		if err != nil {
			failure = fmt.Errorf("request %d %s/%s: %w", i, w.kinds[r.kind], schemeNames[r.scheme], err)
			break
		}
		reqs = append(reqs, t)
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s.jsonl", w.name))
	if err := writeSpans(path, tr.spans); err != nil {
		return nil, err
	}
	m, rec := layerMetrics(w, reqs, win, by, builds)
	m["mem.tag_bytes_resident_mb"] = metric{float64(resident) / (1 << 20), "MiB"}
	rec["span_file"] = path
	rec["spans"] = len(tr.spans)
	rec["requests"] = len(reqs)
	fmt.Printf("  traced replay: %d requests, %d spans -> %s\n", len(reqs), len(tr.spans), path)
	return &traceResult{metrics: m, record: rec, err: failure}, nil
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceOne serves r through the handler and replays the handler's calls on
// r's twin. Which of the two goes first alternates from request to request,
// so that neither always finds the caches the other warmed.
func traceOne(dm *daemon, h http.Handler, tr *tracer, r request) (traced, error) {
	t := traced{kind: r.kind, scheme: r.scheme, phase: map[string]time.Duration{},
		call: map[string]time.Duration{}, own: map[string]time.Duration{}}
	root := tr.begin("request", -1)
	defer tr.end(root)
	serve := func() error {
		created := dm.srv.Pool().Stats().Created
		sp := tr.begin("server.ServeHTTP", root)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(r.body)))
		t.serve = tr.end(sp)
		t.servedBuilt = dm.srv.Pool().Stats().Created > created
		rep, err := check(rec.Code, rec.Body.Bytes(), r.want)
		if err != nil {
			return fmt.Errorf("served: %w", err)
		}
		for _, s := range rep.Spans {
			t.phase[s.Phase] += time.Duration(s.DurationNS)
		}
		return nil
	}
	replay := func() error {
		rp := tr.begin("replay", root)
		defer tr.end(rp)
		return replayCalls(dm, tr, rp, r, &t)
	}
	first, second := serve, replay
	if tr.req%2 == 1 {
		first, second = replay, serve
	}
	if err := first(); err != nil {
		return t, err
	}
	return t, second()
}

// replayCalls is the handler's call sequence for one request, followed by
// the below-session calls on a second lease.
func replayCalls(dm *daemon, tr *tracer, rp int, r request, t *traced) error {
	srv := dm.srv
	var in struct {
		Program  json.RawMessage `json:"program"`
		Workload string          `json:"workload"`
		Canned   string          `json:"canned"`
	}
	if err := json.Unmarshal(r.twin, &in); err != nil {
		return err
	}
	ec := exec.New(context.Background(), exec.Options{})
	ec.Begin(exec.PhaseEdge)
	var (
		prog *analysis.Program
		el   *analysis.Elision
		name = in.Workload
	)
	switch {
	case len(in.Program) > 0:
		ec.Begin(exec.PhaseScreen)
		sp := tr.begin("analysis.ScreenBytes", rp)
		v, hit, err := srv.ScreenCache().ScreenBytes(in.Program)
		t.call["screen"] = tr.end(sp)
		ec.End(exec.PhaseScreen)
		if err != nil {
			return err
		}
		sp = tr.begin("report.ObserveScreen", rp)
		srv.Sink().ObserveScreen(v.Rejected(), hit)
		t.call["observe"] += tr.end(sp)
		if v.Rejected() != (r.want.status == http.StatusUnprocessableEntity) || (v.Rejected() && v.Rule != r.want.rule) {
			return fmt.Errorf("replayed screen: rejected=%v rule %q, want status %d rule %q", v.Rejected(), v.Rule, r.want.status, r.want.rule)
		}
		if v.Rejected() {
			return nil
		}
		sp = tr.begin("analysis.ParseProgram", rp)
		prog, err = analysis.ParseProgram(in.Program)
		t.call["parse"] = tr.end(sp)
		if err != nil {
			return err
		}
		el, name = v.Elision, prog.Method.Name
	case in.Canned == "oob":
		prog, name = pool.OOBProgram(), "canned:oob"
	}
	ec.End(exec.PhaseEdge)

	p := srv.Pool()
	created := p.Stats().Created
	actx, cancel := context.WithTimeout(ec, serveDefaults().AcquireTimeout)
	ec.Begin(exec.PhaseLease)
	sp := tr.begin("pool.AcquireFor", rp)
	sess, err := p.AcquireFor(actx, schemeValues[r.scheme], "")
	t.call["lease"] = tr.end(sp)
	ec.End(exec.PhaseLease)
	cancel()
	if err != nil {
		return err
	}
	t.built = p.Stats().Created > created

	before := counts(sess)
	ec.Begin(exec.PhaseExec)
	var res *pool.RunResult
	start := time.Now()
	switch {
	case r.prog != nil:
		// RunProgramElided's own calls, so that the interpreter's time
		// and its native bodies' time come from one execution.
		sp = tr.begin("interp.InvokeCtx", rp)
		res = runInterp(tr, ec, sess.Env(), prog, el, t)
		t.steps = r.prog.steps
	case prog != nil:
		sp = tr.begin("pool.RunProgramElided", rp)
		res = sess.RunProgramElided(ec, prog, el)
	default:
		// RunWorkload's own calls on the session's Env(), so that each
		// item's Setup, Run and Verify are timed on the run the request
		// makes, not on a second, cache-warm one.
		sp = tr.begin("pool.RunWorkload", rp)
		env := sess.Env()
		env.BindExec(ec)
		res = &pool.RunResult{Ret: 1}
		res.Fault, res.Err = replayItem(tr, sp, env, name, t)
		env.BindExec(nil)
	}
	t.call["exec"] = tr.end(sp)
	ec.End(exec.PhaseExec)
	after := counts(sess)
	t.tagAllocs = after.tagAllocs - before.tagAllocs
	t.granules = after.granules - before.granules
	t.tagReleases = after.tagReleases - before.tagReleases
	t.copied = after.copied - before.copied
	t.tagPages = after.tagPages - before.tagPages

	got := reply{OK: !res.Faulted() && res.Err == nil, Ret: res.Ret}
	if res.Faulted() {
		got.Fault = &struct{}{}
	}
	if res.Err != nil {
		got.Error = res.Err.Error()
	}
	if err := checkReply(got, r.want); err != nil {
		p.Release(sess)
		return fmt.Errorf("replayed run: %w", err)
	}
	if r.prog != nil && t.nativeCalls != len(r.prog.calls) {
		p.Release(sess)
		return fmt.Errorf("replayed run made %d native calls, the generator expects %d", t.nativeCalls, len(r.prog.calls))
	}

	sp = tr.begin("report.Observe", rp)
	if res.ElidedSites > 0 || res.ElisionInvalidated {
		srv.Sink().ObserveElision(uint64(res.ElidedSites), res.ElisionInvalidated)
	}
	if res.Faulted() {
		srv.Sink().RecordFault(sess.Name(), name, res.Fault)
	}
	t.call["observe"] += tr.end(sp)

	ec.Begin(exec.PhaseRelease)
	sp = tr.begin("pool.Release", rp)
	p.Release(sess)
	t.call["release"] = tr.end(sp)
	ec.End(exec.PhaseRelease)

	sp = tr.begin("report.Observe", rp)
	abort := exec.Classify(res.Err)
	srv.Sink().ObserveAbort(abort)
	srv.Sink().ObserveSpans(ec.Spans())
	srv.Sink().ObserveRequest(time.Since(start), res.Faulted(), res.Err != nil && abort == exec.AbortNone)
	t.call["observe"] += tr.end(sp)

	if res.Faulted() || in.Canned != "" {
		return nil
	}
	// The below-session calls get a lease of their own, so that the timed
	// Release above recycles only what the handler's calls left behind.
	sess, err = p.AcquireFor(context.Background(), schemeValues[r.scheme], "")
	if err != nil {
		return err
	}
	err = below(tr, rp, sess.Env(), r, t)
	p.Release(sess)
	if err != nil {
		return fmt.Errorf("below the session: %w", err)
	}
	return nil
}

// runInterp makes RunProgramElided's calls on env: an interpreter with the
// program's materialized natives, the elision mask bound when its binding
// validates, then InvokeCtx. Each native body is timed into t.
func runInterp(tr *tracer, ec *exec.Context, env *jni.Env, prog *analysis.Program, el *analysis.Elision, t *traced) *pool.RunResult {
	ip := interp.New(env)
	for name, sum := range prog.Natives {
		body := sum.Materialize()
		ip.RegisterNative(name, interp.NativeMethod{Kind: sum.Kind, Body: func(e *jni.Env, arr *vm.Object) error {
			t0 := tr.now()
			err := body(e, arr)
			t.native += tr.now() - t0
			t.nativeCalls++
			return err
		}})
	}
	res := &pool.RunResult{}
	invalBefore := env.ElisionInvalidations()
	if el != nil {
		if el.ValidateBinding(prog) == nil {
			ip.BindElision(el.Mask())
			res.ElidedSites = el.Sites()
		} else {
			res.ElisionInvalidated = true
		}
	}
	env.BindExec(ec)
	res.Ret, res.Fault, res.Err = ip.InvokeCtx(ec, prog.Method)
	env.BindExec(nil)
	if el != nil && env.ElisionInvalidations() > invalBefore {
		res.ElisionInvalidated = true
	}
	t.interpreted = true
	return res
}

// layerCounts are the counters a request's execution moves in its session.
type layerCounts struct {
	tagAllocs, granules, tagReleases, copied int64
	tagPages                                 uint64
}

func counts(s *pool.Session) layerCounts {
	rt := s.Runtime()
	var c layerCounts
	if p := rt.Protector(); p != nil {
		st := p.Stats()
		c.tagAllocs, c.granules, c.tagReleases = st.TagAllocs, st.GranulesTagged, st.TagReleases
	}
	if g := rt.GuardedChecker(); g != nil {
		c.copied = g.Stats().BytesCopied
	}
	c.tagPages = rt.VM().Space.TagStats().PagesMaterialized
	return c
}

// below makes the calls under the session boundary on a leased session's
// Env(): a program's first native calls with a span per JNI entry point,
// then the checked-access batch.
func below(tr *tracer, rp int, env *jni.Env, r request, t *traced) error {
	b := tr.begin("session.Env", rp)
	defer tr.end(b)
	if r.prog != nil {
		if err := replayNatives(tr, b, env, r.prog, t); err != nil {
			return err
		}
	}
	arr, err := env.NewArray(vm.KindByte, checkedAccesses)
	if err != nil {
		return err
	}
	defer env.DeleteLocalRef(arr)
	var elapsed time.Duration
	fault, err := env.CallNative("checked_access", jni.Regular, func(e *jni.Env) error {
		p, err := e.GetPrimitiveArrayCritical(arr)
		if err != nil {
			return err
		}
		sp := tr.begin("mem.LoadByte+StoreByte", b)
		for i := 0; i < checkedAccesses; i++ {
			q := p.Add(int64(i))
			e.StoreByte(q, e.LoadByte(q)+1)
		}
		elapsed = tr.end(sp)
		return e.ReleasePrimitiveArrayCritical(arr, p, jni.ReleaseDefault)
	})
	if fault != nil {
		return fmt.Errorf("checked access faulted: %v", fault)
	}
	t.access = elapsed
	return err
}

// replayNatives allocates the program's arrays and makes its first
// maxSpannedCalls native calls with a span per JNI entry point.
func replayNatives(tr *tracer, b int, env *jni.Env, pi *programInfo, t *traced) error {
	arrays := make([]*vm.Object, len(pi.slots))
	for i, n := range pi.slots {
		a, err := env.NewIntArray(n)
		if err != nil {
			return err
		}
		arrays[i] = a
	}
	defer func() {
		for _, a := range arrays {
			env.DeleteLocalRef(a)
		}
	}()
	n := min(len(pi.calls), maxSpannedCalls)
	for _, c := range pi.calls[:n] {
		if err := spannedCall(tr, b, env, arrays[c.slot], c, t.own); err != nil {
			return err
		}
	}
	t.spanned = n
	t.ownScale = float64(len(pi.calls)) / float64(n)
	return nil
}

// spannedCall is a materialized native's call sequence inside CallNative:
// acquire the array, store at both offsets, release. It takes a timestamp at
// each entry point's boundary and records the spans afterwards, so the
// bookkeeping stays out of the timed intervals. It adds each layer's time to
// own; the trampoline's share is CallNative's time outside the native body.
func spannedCall(tr *tracer, parent int, env *jni.Env, arr *vm.Object, c nativeCall, own map[string]time.Duration) error {
	var ts [4]time.Duration // body entry, acquired, stored, released
	t0 := tr.now()
	fault, err := env.CallNative("replay", jni.Regular, func(e *jni.Env) error {
		ts[0] = tr.now()
		p, err := e.GetIntArrayElements(arr)
		ts[1] = tr.now()
		if err != nil {
			return err
		}
		touch(e, p, c)
		ts[2] = tr.now()
		err = e.ReleaseIntArrayElements(arr, p, jni.ReleaseDefault)
		ts[3] = tr.now()
		return err
	})
	t1 := tr.now()
	if fault != nil {
		return fmt.Errorf("native faulted: %v", fault)
	}
	if err != nil {
		return err
	}
	cn := tr.add("jni.CallNative", parent, t0, t1)
	tr.add("jni.GetIntArrayElements", cn, ts[0], ts[1])
	tr.add("mem.StoreByte", cn, ts[1], ts[2])
	tr.add("jni.ReleaseIntArrayElements", cn, ts[2], ts[3])
	own["jni.acquire"] += ts[1] - ts[0]
	own["mem.store"] += ts[2] - ts[1]
	own["jni.release"] += ts[3] - ts[2]
	own["jni.trampoline"] += t1 - t0 - (ts[3] - ts[0])
	return nil
}

func touch(e *jni.Env, p mte.Ptr, c nativeCall) {
	e.StoreByte(p.Add(c.minOff), 0x5A)
	if c.maxOff != c.minOff {
		e.StoreByte(p.Add(c.maxOff), 0x5A)
	}
}

// replayItem makes RunWorkload's calls for one geekbench item at default
// scale: Setup, Run inside CallNative, Verify.
func replayItem(tr *tracer, parent int, env *jni.Env, item string, t *traced) (*mte.Fault, error) {
	wl, err := workloads.ByName(item, workloads.ScaleDefault)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("workloads.Setup", parent)
	err = wl.Setup(env)
	t.own["workloads.setup"] = tr.end(sp)
	if err != nil {
		return nil, err
	}
	cn := tr.begin("jni.CallNative", parent)
	var run time.Duration
	fault, err := env.CallNative(item, jni.Regular, func(e *jni.Env) error {
		rs := tr.begin("workloads.Run", cn)
		err := wl.Run(e)
		run = tr.end(rs)
		return err
	})
	t.own["workloads.run"] = run
	t.own["jni.trampoline"] = tr.end(cn) - run
	t.spanned, t.ownScale = 1, 1
	if fault != nil || err != nil {
		return fault, err
	}
	sp = tr.begin("workloads.Verify", parent)
	err = wl.Verify()
	t.own["workloads.verify"] = tr.end(sp)
	return nil, err
}

// kindGeo groups per-request values by kind, takes each kind's median and
// combines the kinds by geometric mean, the same way the end-to-end p50s are
// combined. val reports false for requests that do not carry the value. A
// kind whose median is not positive makes the result 0 rather than being
// left out.
func kindGeo(w *workload, reqs []traced, val func(*traced) (float64, bool)) float64 {
	by := make([][]float64, len(w.kinds))
	for i := range reqs {
		if v, ok := val(&reqs[i]); ok {
			by[reqs[i].kind] = append(by[reqs[i].kind], v)
		}
	}
	var meds []float64
	for _, xs := range by {
		if len(xs) > 0 {
			meds = append(meds, median(xs))
		}
	}
	return bench.GeoMean(meds)
}

// mean of val over the requests that carry it (0 when none do).
func mean(reqs []traced, val func(*traced) (float64, bool)) float64 {
	sum, n := 0.0, 0
	for i := range reqs {
		if v, ok := val(&reqs[i]); ok {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// handlerPhases pairs the server's own phase spans with the replayed calls
// that do the same work.
var handlerPhases = []string{"screen", "lease", "exec", "release"}

// ownLayers are the below-session layers of a request's own work that the
// cost ledger adds up.
var ownLayers = []string{"jni.trampoline", "jni.acquire", "mem.store", "jni.release",
	"workloads.setup", "workloads.run", "workloads.verify"}

// layerMetrics derives the per-layer metrics from the replay and the window.
func layerMetrics(w *workload, reqs []traced, win *window, by [][4][]float64, builds []time.Duration) (map[string]metric, map[string]any) {
	m := map[string]metric{}
	rec := map[string]any{}
	all := func(f func(*traced) float64) func(*traced) (float64, bool) {
		return func(t *traced) (float64, bool) { return f(t), true }
	}
	leased := func(t *traced) bool { _, ok := t.call["exec"]; return ok }

	// The server's self time comes from the served request alone:
	// ServeHTTP's inclusive time minus the phase spans the handler reported
	// for it. Parsing and the sink observers run outside those phases, so
	// the replayed twin's parse and observe calls (microseconds, same bytes
	// but for the name) come off too. A 422 reports no phases and is left out.
	m["server.self_us"] = metric{kindGeo(w, reqs, func(t *traced) (float64, bool) {
		d := t.serve - t.call["parse"] - t.call["observe"]
		for _, ph := range handlerPhases {
			d -= t.phase[ph]
		}
		return us(d), len(t.phase) > 0
	}), "us"}
	m["report.observe_us"] = metric{kindGeo(w, reqs, all(func(t *traced) float64 { return us(t.call["observe"]) })), "us"}

	m["analysis.screen_us"] = metric{kindGeo(w, reqs, func(t *traced) (float64, bool) {
		d, ok := t.call["screen"]
		return us(d), ok
	}), "us"}
	m["analysis.parse_us"] = metric{kindGeo(w, reqs, func(t *traced) (float64, bool) {
		d, ok := t.call["parse"]
		return us(d), ok
	}), "us"}
	ty := win.tally
	m["analysis.screen_hit_ratio"] = metric{ratio(ty.cacheHits, ty.screened), "ratio"}
	m["analysis.elided_sites_per_req"] = metric{ratio(ty.elidedSites, ty.served), "sites/req"}

	m["pool.acquire_us"] = metric{kindGeo(w, reqs, func(t *traced) (float64, bool) {
		return us(t.call["lease"]), leased(t) && !t.built
	}), "us"}
	var buildMS []float64
	for _, b := range builds {
		buildMS = append(buildMS, float64(b.Nanoseconds())/1e6)
	}
	for i := range reqs {
		if reqs[i].built {
			buildMS = append(buildMS, float64(reqs[i].call["lease"].Nanoseconds())/1e6)
		}
	}
	m["pool.build_ms"] = metric{median(buildMS), "ms"}
	m["pool.release_us"] = metric{kindGeo(w, reqs, func(t *traced) (float64, bool) {
		return us(t.call["release"]), leased(t)
	}), "us"}
	m["pool.builds_per_kreq"] = metric{1000 * ratio(ty.builds, ty.attempted), "count/kreq"}
	m["pool.quarantined_per_kreq"] = metric{1000 * ratio(ty.quarantines, ty.attempted), "count/kreq"}
	m["pool.warm_ratio"] = metric{ratio(ty.leases-ty.builds, ty.leases), "ratio"}
	m["pool.waiters_max"] = metric{float64(win.waitersMax), "count"}

	// The interpreter's self time is the replayed execution minus its own
	// native bodies and minus, per native call, the trampoline's time
	// outside the body as the same request's spanned calls measured it.
	interp := func(t *traced) (float64, bool) {
		tramp := time.Duration(0)
		if t.spanned > 0 {
			tramp = t.own["jni.trampoline"] / time.Duration(t.spanned)
		}
		return us(t.call["exec"] - t.native - time.Duration(t.nativeCalls)*tramp), t.interpreted
	}
	m["interp.self_us"] = metric{kindGeo(w, reqs, interp), "us"}
	m["interp.ns_per_step"] = metric{kindGeo(w, reqs, func(t *traced) (float64, bool) {
		v, ok := interp(t)
		return v * 1e3 / float64(t.steps), ok && t.steps > 0
	}), "ns"}

	for s, name := range schemeNames {
		perCall := func(layer string) func(*traced) (float64, bool) {
			return func(t *traced) (float64, bool) {
				d, ok := t.own[layer]
				return us(d) / float64(t.spanned), ok && t.scheme == s && t.spanned > 0
			}
		}
		m["jni.callnative_us."+name] = metric{kindGeo(w, reqs, perCall("jni.trampoline")), "us"}
		m["jni.acquire_us."+name] = metric{kindGeo(w, reqs, perCall("jni.acquire")), "us"}
		m["jni.release_us."+name] = metric{kindGeo(w, reqs, perCall("jni.release")), "us"}
		m["mem.checked_access_ns."+name] = metric{kindGeo(w, reqs, func(t *traced) (float64, bool) {
			return float64(t.access.Nanoseconds()) / (2 * checkedAccesses), t.scheme == s && t.access > 0
		}), "ns"}
		m["workloads.run_ms."+name] = metric{kindGeo(w, reqs, func(t *traced) (float64, bool) {
			d, ok := t.own["workloads.run"]
			return float64(d.Nanoseconds()) / 1e6, ok && t.scheme == s
		}), "ms"}
	}
	for _, l := range []string{"setup", "verify"} {
		m["workloads."+l+"_ms"] = metric{kindGeo(w, reqs, func(t *traced) (float64, bool) {
			d, ok := t.own["workloads."+l]
			return float64(d.Nanoseconds()) / 1e6, ok
		}), "ms"}
	}

	isMTE := func(t *traced) bool { return leased(t) && (t.scheme == schemeSync || t.scheme == schemeAsync) }
	m["core.tag_allocs_per_req"] = metric{mean(reqs, func(t *traced) (float64, bool) { return float64(t.tagAllocs), isMTE(t) }), "count/req"}
	m["core.granules_tagged_per_req"] = metric{mean(reqs, func(t *traced) (float64, bool) { return float64(t.granules), isMTE(t) }), "count/req"}
	m["core.tag_releases_per_req"] = metric{mean(reqs, func(t *traced) (float64, bool) { return float64(t.tagReleases), isMTE(t) }), "count/req"}
	m["guardedcopy.bytes_copied_per_req"] = metric{mean(reqs, func(t *traced) (float64, bool) {
		return float64(t.copied), leased(t) && t.scheme == schemeGuarded
	}), "B/req"}
	m["mem.tag_pages_materialized"] = metric{mean(reqs, func(t *traced) (float64, bool) { return float64(t.tagPages), isMTE(t) }), "pages/req"}

	m["go.gc_cycles_per_kreq"] = metric{1000 * ratio(int(win.gcCycles), ty.attempted), "count/kreq"}
	m["go.gc_cpu_share"] = metric{win.gcCPU, "ratio"}
	m["go.alloc_kb_per_req"] = metric{float64(win.allocB) / 1024 / float64(max(ty.attempted, 1)), "KiB/req"}
	m["host.steal_share"] = metric{win.steal, "ratio"}

	// Tracing overhead: the replayed calls against the server's own phase
	// spans for the same work, kind by kind.
	over, phases := overheadRatio(w, reqs)
	m["trace.overhead_share"] = metric{over - 1, "ratio"}
	rec["phase_medians_us_traced_vs_served"] = phases

	ledger := costLedger(w, reqs, by)
	for s := 1; s < len(schemeNames); s++ {
		m["ledger.residual_share."+schemeNames[s]] = metric{ledger[schemeNames[s]]["residual_share"], "ratio"}
	}
	rec["ledger"] = ledger
	return m, rec
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// overheadRatio is, per kind and scheme, the sum over phases of the replayed
// calls' median over the sum of the server's own median phase spans,
// combined over the cells by geometric mean. Requests whose served or
// replayed lease built a session are left out: the replay's own quarantines
// decide which of the two pays the build.
func overheadRatio(w *workload, reqs []traced) (float64, map[string]map[string][2]float64) {
	var ratios []float64
	table := map[string]map[string][2]float64{}
	for k := range w.kinds {
		for sc := range schemeNames {
			var traced, served float64
			for _, ph := range handlerPhases {
				var a, b []float64
				for i := range reqs {
					t := &reqs[i]
					c, okc := t.call[ph]
					s, oks := t.phase[ph]
					if t.kind == k && t.scheme == sc && okc && oks && !t.built && !t.servedBuilt {
						a = append(a, float64(c))
						b = append(b, float64(s))
					}
				}
				if len(a) == 0 {
					continue
				}
				traced += median(a)
				served += median(b)
				cell := w.kinds[k] + "/" + schemeNames[sc]
				if table[cell] == nil {
					table[cell] = map[string][2]float64{}
				}
				table[cell][ph] = [2]float64{median(a) / 1e3, median(b) / 1e3}
			}
			if served > 0 {
				ratios = append(ratios, traced/served)
			}
		}
	}
	return bench.GeoMean(ratios), table
}

// costLedger explains each protected scheme's p50 gap over no protection with
// the traced below-session layers: per kind, each layer's median time per
// request (per-call cost × the request's calls) under the scheme minus under
// none, summed; against it the untraced window's per-kind p50 gap. The
// residual share is the part of the observed gap the layers do not explain.
func costLedger(w *workload, reqs []traced, by [][4][]float64) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	layerMS := func(k, s int, layer string) (float64, bool) {
		var xs []float64
		for i := range reqs {
			t := &reqs[i]
			if d, ok := t.own[layer]; ok && t.kind == k && t.scheme == s {
				xs = append(xs, float64(d.Nanoseconds())/1e6*t.ownScale)
			}
		}
		return median(xs), len(xs) > 0
	}
	for s := 1; s < len(schemeNames); s++ {
		row := map[string]float64{}
		var obs, pred float64
		for k := range w.kinds {
			if len(by[k][s]) == 0 || len(by[k][schemeNone]) == 0 {
				continue
			}
			kindPred, used := 0.0, false
			for _, l := range ownLayers {
				a, okA := layerMS(k, s, l)
				b, okB := layerMS(k, schemeNone, l)
				if okA && okB {
					kindPred += a - b
					row[l+"_ms"] += a - b
					used = true
				}
			}
			if !used {
				continue
			}
			pred += kindPred
			obs += median(by[k][s]) - median(by[k][schemeNone])
		}
		row["observed_gap_ms"], row["explained_gap_ms"] = obs, pred
		if obs != 0 {
			row["residual_share"] = (obs - pred) / obs
		}
		out[schemeNames[s]] = row
	}
	return out
}
