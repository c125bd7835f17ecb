package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"mte4jni"
	"mte4jni/internal/analysis"
	"mte4jni/internal/bench"
	"mte4jni/internal/pool"
	"mte4jni/internal/redteam"
	"mte4jni/internal/server"
)

// abandonAfter is how long a cancel-kind request runs before its client
// walks away from the connection.
const abandonAfter = 50 * time.Millisecond

// runLoad is the concurrent load generator for `mte4jni serve`. Each request
// belongs to one row of the request table (requestKinds), which fixes what it
// sends, the reply it must get under the run's scheme and the change in
// /metrics it must cause. A failed exchange, a wrong verdict or a counter
// outside its summed range makes runLoad exit nonzero.
func runLoad(args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	url := fs.String("url", "http://127.0.0.1:8321", "server base URL")
	n := fs.Int("n", 50, "total requests")
	c := fs.Int("c", 8, "concurrent workers (closed loop; -rate ignores it)")
	scheme := fs.String("scheme", "sync", "protection scheme for every request (none, guarded, sync, async)")
	rate := fs.Float64("rate", 0, "open-loop arrival rate in req/s: requests launch on Poisson inter-arrival times regardless of completions, the queueing discipline real traffic applies (0 = closed loop over -c workers)")
	sloP99 := fs.Duration("slo-p99", 0, "fail (exit nonzero) when the run's p99 latency exceeds this budget (0 = no SLO gate)")
	reportFile := fs.String("report", "", "write a JSON report (throughput, latency percentiles, verdict counts, SLO verdict) to this file")
	tenantCount := fs.Int("tenants", 0, "spread requests across K tenants (load-tenant-*), picked shard-affine so each of the server's shards (as the /metrics baseline counts them) homes K/shards of them; K must be a multiple of the shard count, and no shard may then serve more than 2x the mean (0 = no tenant attribution)")
	kinds := requestKinds(fs)
	fs.Parse(args)
	sc, err := server.ParseScheme(*scheme)
	if err != nil {
		return err
	}
	if *n <= 0 || *c <= 0 {
		return fmt.Errorf("load: -n and -c must be positive")
	}
	plan := make([]*kind, *n) // request i belongs to the first row claiming it
	for i := range plan {
		for _, k := range kinds {
			if plan[i] == nil && k.claims(i) {
				plan[i] = k
			}
		}
		if plan[i].serial && (*c != 1 || *rate > 0) {
			return fmt.Errorf("load: -attack-rate requires -c 1 and no -rate (escalation accounting is order-dependent)")
		}
	}

	client, abandoning := &http.Client{Timeout: 60 * time.Second}, &http.Client{Timeout: abandonAfter}
	// Reconciliation compares the change over this run, so it works against
	// warm servers too. The baseline's per-shard rows give the shard count.
	before, beforeFlat, err := getMetrics(client, *url)
	if err != nil {
		return fmt.Errorf("load: fetching /metrics baseline: %w", err)
	}
	shards := len(before.Pool.Shards)
	if shards < 1 || *tenantCount%shards != 0 {
		return fmt.Errorf("load: -tenants %d is not a multiple of the server's %d shards", *tenantCount, shards)
	}
	// Tenant spread: probe the server's affinity hash until K/shards tenants
	// home on each shard, so a uniform request spread is a uniform shard
	// spread by construction and the balance check cannot fail by hash luck.
	var tenants []string
	homed := make([]int, shards)
	for probe := 0; len(tenants) < *tenantCount; probe++ {
		name := fmt.Sprintf("load-tenant-%d", probe)
		if s := pool.AffinityKey(name, sc.String()) % uint64(shards); homed[s] < *tenantCount/shards {
			homed[s]++
			tenants = append(tenants, name)
		}
	}

	results := make([]result, *n)
	do := func(i int) {
		req, want := plan[i].build(i, sc)
		if req.Scheme == "" {
			req.Scheme = *scheme
		}
		if req.Tenant == "" && len(tenants) > 0 {
			req.Tenant = tenants[i%len(tenants)]
		}
		cl := client
		if want.status == 0 {
			cl = abandoning
		}
		status, raw, lat, err := send(cl, *url, req)
		r := result{req: req, want: want, latency: lat}
		if err == nil {
			r.wrong = want.check(status, raw)
		} else if want.status != 0 { // an abandoned request has no reply to judge
			r.transport = err
		}
		results[i] = r
	}
	// Closed loop: at most c requests in flight, each slot refilled when its
	// request completes. Open loop: arrivals follow a Poisson process at
	// -rate regardless of completions, so a slow server faces a growing
	// backlog as it would behind real traffic, which keeps the percentiles
	// honest SLO inputs (a closed loop slows its arrivals when the server
	// lags and flatters the tail).
	var wg sync.WaitGroup
	slots := make(chan struct{}, *c)
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	start := time.Now()
	next := start
	for i := 0; i < *n; i++ {
		if *rate > 0 {
			next = next.Add(time.Duration(rng.ExpFloat64() / *rate * float64(time.Second)))
			time.Sleep(time.Until(next))
		} else {
			slots <- struct{}{}
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			do(i)
			if *rate == 0 {
				<-slots
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	// Every request adds its row's expected /metrics changes to the tally,
	// which starts from a zero range for each held field.
	tally := deltas{}
	for _, f := range held {
		tally[f] = span{}
	}
	verified := map[string]int64{} // by row
	programs := map[string]bool{}
	var wrong, transport int
	var first error
	lats := make([]float64, 0, *n) // ns
	for i, r := range results {
		tally.add(r.want.deltas)
		if len(r.req.Program) > 0 {
			programs[string(r.req.Program)] = true
		}
		switch {
		case r.transport != nil:
			transport++
			r.wrong = fmt.Errorf("transport: %w", r.transport)
		case r.wrong != nil:
			wrong++
		default:
			verified[plan[i].name]++
			if r.want.status != 0 {
				lats = append(lats, float64(r.latency))
			}
			continue
		}
		if first == nil {
			first = fmt.Errorf("request %d (%s under %s): %w", i, plan[i].name, r.req.Scheme, r.wrong)
		}
	}
	latRep := summarizeLatency(lats)
	rep := loadReport{
		Requests: *n, Workers: *c, OpenLoop: *rate > 0, RateTargetRPS: *rate,
		RateAchievedRPS: float64(*n) / wall.Seconds(), WallNS: wall.Nanoseconds(),
		Verified: verified, WrongVerdicts: wrong, TransportErrors: transport, Latency: latRep,
	}
	shape := fmt.Sprintf("over %d workers", *c)
	if *rate > 0 {
		// The open loop ignores -c, so it has no worker count to report.
		shape, rep.Workers = fmt.Sprintf("open loop at %.0f req/s", *rate), 0
	}
	fmt.Printf("load: %d requests %s in %v (%.0f req/s)\n", *n, shape, wall.Round(time.Millisecond), rep.RateAchievedRPS)
	fmt.Printf("  verified:%s wrong-verdicts=%d transport-errors=%d\n", fields(verified, "%d"), wrong, transport)
	if len(lats) > 0 {
		us := func(ns int64) time.Duration { return time.Duration(ns).Round(time.Microsecond) }
		fmt.Printf("  latency: p50=%v p90=%v p99=%v p999=%v max=%v\n",
			us(latRep.P50NS), us(latRep.P90NS), us(latRep.P99NS), us(latRep.P999NS), us(latRep.MaxNS))
	}
	if *sloP99 > 0 {
		met := time.Duration(latRep.P99NS) <= *sloP99
		rep.SLOP99NS, rep.SLOP99Met = sloP99.Nanoseconds(), &met
	}
	if *reportFile != "" {
		data, _ := json.MarshalIndent(rep, "", "  ") // plain fields always marshal
		if err := os.WriteFile(*reportFile, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("load: writing report: %w", err)
		}
	}
	if first != nil {
		return fmt.Errorf("load: %d wrong verdicts, %d transport errors; first: %w", wrong, transport, first)
	}

	// The server sees a client disconnect asynchronously: the run notices at
	// its next cancellation poll and releases the lease and counts the abort
	// after the client has moved on. Poll until both have happened.
	var after server.MetricsResponse
	var afterFlat map[string]int64
	for settleBy := time.Now().Add(15 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if after, afterFlat, err = getMetrics(client, *url); err != nil {
			return fmt.Errorf("load: fetching /metrics: %w", err)
		}
		canceled := afterFlat["canceled_total"] - beforeFlat["canceled_total"]
		if after.Pool.Leased == 0 && canceled >= tally["canceled_total"].lo || time.Now().After(settleBy) {
			break
		}
	}
	moved := map[string]int64{}
	for _, f := range append([]string{"screen_cache_hits", "pool.created", "pool.reused"}, keys(tally)...) {
		moved[f] = afterFlat[f] - beforeFlat[f]
	}
	fmt.Printf("  server:%s\n", fields(moved, "%+d"))
	if err := reconcile(beforeFlat, afterFlat, tally); err != nil {
		return err
	}
	// All but the first (cold) screening of each distinct program sent must
	// be verdict-cache hits.
	if screened, hits := moved["screened_total"], moved["screen_cache_hits"]; hits+int64(len(programs)) < screened {
		return fmt.Errorf("load: screen cache ineffective: +%d hits for %d screenings over %d distinct programs",
			hits, screened, len(programs))
	}
	// Per-shard ledger: every lease is accounted to exactly one shard, so
	// the shards' lease counts sum to the pool's created+reused.
	if len(after.Pool.Shards) != shards {
		return fmt.Errorf("load: server reports %d shards, %d at the baseline", len(after.Pool.Shards), shards)
	}
	var leases []int64
	var dLeases, maxLeases int64
	for i, a := range after.Pool.Shards {
		if a.Leased != 0 || a.Waiters != 0 {
			return fmt.Errorf("load: shard %d not drained: leased=%d waiters=%d", i, a.Leased, a.Waiters)
		}
		d := int64(a.Leases - before.Pool.Shards[i].Leases)
		leases, dLeases, maxLeases = append(leases, d), dLeases+d, max(maxLeases, d)
	}
	fmt.Printf("  shards: leases=%v\n", leases)
	if built := moved["pool.created"] + moved["pool.reused"]; dLeases != built {
		return fmt.Errorf("load: shard lease ledger off: shards sum +%d leases, pool counted +%d created and reused", dLeases, built)
	}
	// When every request's count is exact, every served request took one lease.
	if want := tally["requests_total"]; want.lo == want.hi && dLeases != moved["requests_total"] {
		return fmt.Errorf("load: +%d shard leases for +%d served requests", dLeases, moved["requests_total"])
	}
	// The affine tenant spread puts as many tenants on every shard, so a shard
	// serving over 2x the mean means routing or stealing hoards leases.
	if mean := float64(dLeases) / float64(shards); *tenantCount > 0 && mean > 0 && float64(maxLeases) > 2*mean {
		return fmt.Errorf("load: shard imbalance: max +%d leases against mean %.1f (uniform affine load must stay within 2x)", maxLeases, mean)
	}
	if *sloP99 > 0 {
		if p99 := time.Duration(latRep.P99NS); p99 > *sloP99 {
			return fmt.Errorf("load: p99 SLO violated: %v against a %v budget", p99, *sloP99)
		}
		fmt.Printf("  slo: p99=%v within the %v budget\n", time.Duration(latRep.P99NS), *sloP99)
	}
	return nil
}

// kind is one row of the request table: which requests it claims, and for
// request i under scheme sc what to send and the outcome to expect.
type kind struct {
	name   string
	claims func(i int) bool
	build  func(i int, sc mte4jni.Scheme) (server.RunRequest, outcome)
	serial bool // its outcomes depend on strict request order
}

// every claims each k-th request, counting from 1; k <= 0 claims none.
func every(k *int) func(int) bool {
	return func(i int) bool { return *k > 0 && (i+1)%*k == 0 }
}

// requestKinds builds the request table in precedence order — reject >
// temporal > cancel > deadline > attack > fault > workload > safe — and
// registers each row's flag on fs.
func requestKinds(fs *flag.FlagSet) []*kind {
	type prepared struct {
		req  server.RunRequest
		want outcome
	}
	prepare := func(p *analysis.Program, scheme string, want outcome) prepared {
		raw, err := analysis.MarshalProgram(p)
		if err != nil {
			panic(err) // the built-in programs always marshal
		}
		return prepared{server.RunRequest{Scheme: scheme, Program: raw}, want}
	}
	// The reject corpus: provably-faulting programs the fault screen must
	// turn away with a structured verdict; reject_forge's forged store also
	// carries a window-risk temporal finding.
	var rejects []prepared
	for _, name := range pool.BadProgramNames {
		d := deltas{"screened_total": one, "screen_rejected_total": one}
		if name == "reject_forge" {
			d["temporal_flagged_total"], d[classField(analysis.WindowRisk)] = one, one
		}
		rejects = append(rejects, prepare(pool.BadProgram(name), "", outcome{status: http.StatusUnprocessableEntity, rule: analysis.RuleNativeFault, deltas: d}))
	}
	// The temporal corpus: four red-team shapes, each under the scheme whose
	// checker is exposed to it. Three are provable faults; the lost update is
	// rejected by the server's default -temporal-policy reject.
	byName := map[string]redteam.CorpusProgram{}
	for _, cp := range redteam.CorpusPrograms() {
		byName[cp.Name] = cp
	}
	var temporal []prepared
	for _, name := range []string{"async-window/damage", "gc-race/scan-window", "guardedcopy/oob-read", "guardedcopy/lost-update"} {
		cp, ok := byName[name]
		if !ok {
			panic("load: red-team corpus has no " + name)
		}
		d := deltas{"screened_total": one, "temporal_flagged_total": one, classField(cp.WantClass): one}
		want := outcome{status: http.StatusUnprocessableEntity, rule: analysis.RuleNativeFault, window: cp.WantClass, deltas: d}
		if name == "guardedcopy/lost-update" {
			want.rule, d["temporal_rejected_total"] = "", one
		} else {
			d["screen_rejected_total"] = one
		}
		temporal = append(temporal, prepare(cp.Program, cp.Scheme, want))
	}
	// The runaway for cancel and deadline injection, a countdown loop no sane
	// budget lets finish. A cancel can land before the screen, the lease or
	// the run, so each of those counts may stay put; the abort counts once.
	spin := prepare(pool.SpinProgram(1<<40), "", outcome{})
	canceled := prepared{spin.req, outcome{deltas: deltas{"canceled_total": one,
		"requests_total": upToOne, "screened_total": upToOne, "pool.canceled_leases": upToOne}}}
	deadlined := prepared{spin.req, outcome{status: http.StatusGatewayTimeout, abort: "deadline_exceeded",
		deltas: deltas{"deadline_exceeded_total": one, "requests_total": one, "screened_total": one, "pool.canceled_leases": one}}}
	fixed := func(p prepared) func(int, mte4jni.Scheme) (server.RunRequest, outcome) {
		return func(int, mte4jni.Scheme) (server.RunRequest, outcome) { return p.req, p.want }
	}

	rejectEvery := fs.Int("reject-rate", 0, "make every k-th request a known-bad inline program the admission screen must reject with 422 (0 = never; wins over every other rate)")
	temporalEvery := fs.Int("temporal-rate", 0, "make every k-th request a red-team corpus program under its risky scheme, which the temporal screen must flag — and, for the policy-rejected shapes, 422 with the provenance chain (0 = never)")
	cancelEvery := fs.Int("cancel-rate", 0, "make every k-th request a runaway spin program whose connection the client abandons after 50ms (0 = never; the server must count it canceled_total and recycle the lease)")
	deadlineEvery := fs.Int("deadline-rate", 0, "make every k-th request a runaway spin program the server's -run-timeout must cut off with 504 (0 = never)")
	attackEvery := fs.Int("attack-rate", 0, "make every k-th request the canned red-team attack probe as tenant \"redteam\" (0 = never; requires -c 1)")
	delayAt := fs.Int("attack-delay-threshold", 0, "mirror of the server's -attack-delay-threshold so the client replicates the escalation state machine for exact reconciliation")
	quarantineAt := fs.Int("attack-quarantine-threshold", 0, "mirror of the server's -attack-quarantine-threshold")
	faultEvery := fs.Int("fault-every", 0, "make every k-th request the canned one-past-the-end store: silent under none, a release-time canary error under guarded, a fault and quarantine under sync and async (0 = never)")
	workload := fs.String("workload", "", "run this built-in workload instead of the canned safe probe")
	// detected replicates the server's detected-fault count for tenant
	// "redteam"; the attack row is serial, so plain state is race-free.
	detected := 0

	return []*kind{
		{name: "reject", claims: every(rejectEvery), build: func(i int, _ mte4jni.Scheme) (server.RunRequest, outcome) {
			return rejects[i%len(rejects)].req, rejects[i%len(rejects)].want
		}},
		{name: "temporal", claims: every(temporalEvery), build: func(i int, _ mte4jni.Scheme) (server.RunRequest, outcome) {
			// Round-robin by injection ordinal: every shape gets an even share.
			p := temporal[((i+1) / *temporalEvery - 1)%len(temporal)]
			return p.req, p.want
		}},
		{name: "cancel", claims: every(cancelEvery), build: fixed(canceled)},
		{name: "deadline", claims: every(deadlineEvery), build: fixed(deadlined)},
		{name: "attack", claims: every(attackEvery), serial: true, build: func(_ int, sc mte4jni.Scheme) (server.RunRequest, outcome) {
			// One forged-tag store: detected exactly under MTE, landing silently
			// otherwise. The tier it meets follows from the detections before it.
			req := server.RunRequest{Canned: "attack", Tenant: "redteam"}
			if *quarantineAt > 0 && detected >= *quarantineAt {
				return req, outcome{status: http.StatusTooManyRequests}
			}
			d := deltas{"requests_total": one, "attack_probes_total": one}
			if *delayAt > 0 && detected >= *delayAt {
				d["pool.throttled_total"] = one
			}
			if !sc.MTE() {
				return req, outcome{status: http.StatusOK, ok: true, ret: 1, deltas: d}
			}
			d["detections_total"], d["faults_total"], d["pool.quarantined"] = one, one, one
			// Reaching a threshold crosses a tier and reseeds; the delay tier is
			// only entered below the quarantine one.
			detected++
			switch {
			case detected == *quarantineAt:
				d["pool.reseeds_total"], d["pool.tenants_quarantined_total"] = one, one
			case detected == *delayAt && (*quarantineAt == 0 || *delayAt < *quarantineAt):
				d["pool.reseeds_total"] = one
			}
			return req, outcome{status: http.StatusOK, fault: true, deltas: d}
		}},
		{name: "oob", claims: every(faultEvery), build: func(_ int, sc mte4jni.Scheme) (server.RunRequest, outcome) {
			// The paper's question asked of one illicit native write, a
			// one-past-the-end store: with no protection it lands silently,
			// guarded copy finds the smashed red-zone canary only at release
			// (§2.3), and MTE faults at the store and quarantines the session.
			req := server.RunRequest{Canned: "oob"}
			switch {
			case sc.MTE():
				return req, outcome{status: http.StatusOK, fault: true,
					deltas: deltas{"requests_total": one, "faults_total": one, "pool.quarantined": one}}
			case sc == mte4jni.GuardedCopy:
				return req, outcome{status: http.StatusOK, errHas: "RuntimeException",
					deltas: deltas{"requests_total": one, "errors_total": one}}
			}
			return req, outcome{status: http.StatusOK, ok: true, ret: 42, deltas: deltas{"requests_total": one}}
		}},
		{name: "workload", claims: func(int) bool { return *workload != "" }, build: func(int, mte4jni.Scheme) (server.RunRequest, outcome) {
			return server.RunRequest{Workload: *workload}, outcome{status: http.StatusOK, ok: true, ret: 1, deltas: deltas{"requests_total": one}}
		}},
		// The safe probe is screened provably safe, so it runs with its one
		// proven site guard-free.
		{name: "safe", claims: func(int) bool { return true }, build: fixed(prepared{server.RunRequest{Canned: "safe"},
			outcome{status: http.StatusOK, ok: true, ret: 42, elided: 1, deltas: deltas{"requests_total": one, "elided_sites_total": one}}})},
	}
}

// classField is the /metrics counter of a temporal window class.
func classField(c analysis.WindowClass) string {
	return "temporal_" + strings.ReplaceAll(string(c), "-", "_") + "_total"
}

// outcome is what one request must come back with, and the change in
// /metrics it must cause.
type outcome struct {
	status int // 0: the client abandons the request, so there is no reply
	ok     bool
	ret    int64  // checked when ok
	fault  bool   // a fault record is present
	errHas string // the reply's error contains it (and is empty when ok)
	abort  string
	elided int // guard-free sites the run was bound with
	// 422 replies: rule is the fault screen's deciding rule ("" when the
	// temporal policy rejected the program), window the class its first
	// temporal finding must carry, with the full four-step chain.
	rule   string
	window analysis.WindowClass
	deltas deltas
}

// check compares one reply with the outcome.
func (o outcome) check(status int, raw []byte) error {
	if o.status == 0 {
		return fmt.Errorf("abandoned runaway completed before the disconnect (status %d): cancel not injected", status)
	}
	if status != o.status {
		return fmt.Errorf("status %d, want %d: %.200s", status, o.status, raw)
	}
	var r struct {
		server.RunResponse
		Verdict *analysis.ScreenVerdict `json:"verdict"`
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return fmt.Errorf("decoding reply: %w", err)
	}
	v := r.Verdict
	switch {
	case r.OK != o.ok || o.ok && (r.Ret != o.ret || r.Error != "") || (r.Fault != nil) != o.fault ||
		!strings.Contains(r.Error, o.errHas) || r.Abort != o.abort || r.ElidedSites != o.elided || r.ElisionInvalidated:
		return fmt.Errorf("reply ok=%v ret=%d fault=%v error=%q abort=%q elided=%d invalidated=%v (session %s), want ok=%v ret=%d fault=%v error naming %q abort=%q elided=%d",
			r.OK, r.Ret, r.Fault != nil, r.Error, r.Abort, r.ElidedSites, r.ElisionInvalidated, r.Session, o.ok, o.ret, o.fault, o.errHas, o.abort, o.elided)
	case status != http.StatusUnprocessableEntity:
		return nil
	case v == nil:
		return fmt.Errorf("422 without a verdict: %.200s", raw)
	case v.Rejected() != (o.rule != ""):
		return fmt.Errorf("fault screen rejected=%v, want %v", v.Rejected(), o.rule != "")
	case o.rule != "" && (v.Rule != o.rule || v.PC < 0 || v.Native == "" || len(v.Provenance) == 0):
		return fmt.Errorf("422 without a structured %s verdict: %+v", o.rule, v)
	case o.window == "":
		return nil
	case len(v.Temporal) == 0 || v.Temporal[0].Class != o.window:
		return fmt.Errorf("temporal findings %+v, want class %q first", v.Temporal, o.window)
	case len(v.Temporal[0].Chain) != 4:
		return fmt.Errorf("provenance chain has %d steps, want the full 4: %q", len(v.Temporal[0].Chain), v.Temporal[0].Chain.String())
	}
	return nil
}

// span is an inclusive range [lo, hi] of a counter's change.
type span struct{ lo, hi int64 }

var one, upToOne = span{1, 1}, span{0, 1}

// deltas maps /metrics fields, by dotted JSON name ("pool.quarantined"), to
// the range their change must fall in.
type deltas map[string]span

// add sums d's ranges into t.
func (t deltas) add(d deltas) {
	for f, s := range d {
		t[f] = span{t[f].lo + s.lo, t[f].hi + s.hi}
	}
}

// held lists every counter a request row can move: each is held to the
// run's summed range, which is zero when no request names it.
var held = []string{
	"requests_total", "faults_total", "errors_total", "screened_total", "screen_rejected_total",
	"canceled_total", "deadline_exceeded_total", "elided_sites_total", "elision_invalidated_total",
	"temporal_flagged_total", "temporal_window_risk_total", "temporal_scan_race_total",
	"temporal_guardedcopy_blindspot_total", "temporal_rejected_total", "attack_probes_total", "detections_total",
	"pool.quarantined", "pool.canceled_leases", "pool.throttled_total", "pool.reseeds_total", "pool.tenants_quarantined_total",
}

// reconcile holds the change of every field want names, between two
// flattened /metrics snapshots, to want's range for it. It reports every
// mismatch, in field order, as the field, its change and the range.
func reconcile(before, after map[string]int64, want deltas) error {
	var bad []string
	for _, f := range keys(want) {
		a, ok := after[f]
		if !ok {
			bad = append(bad, f+": not in /metrics")
		} else if got, w := a-before[f], want[f]; got < w.lo || got > w.hi {
			bad = append(bad, fmt.Sprintf("%s: got %+d, want [%d, %d]", f, got, w.lo, w.hi))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("load: /metrics does not reconcile: %s", strings.Join(bad, "; "))
	}
	return nil
}

// flatten maps every number of a JSON object, as an integer, to its dotted
// name, nested objects extending the name; arrays are left out.
func flatten(raw []byte) (map[string]int64, error) {
	var doc map[string]any
	err := json.Unmarshal(raw, &doc)
	flat := map[string]int64{}
	var walk func(prefix string, m map[string]any)
	walk = func(prefix string, m map[string]any) {
		for k, v := range m {
			switch v := v.(type) {
			case map[string]any:
				walk(prefix+k+".", v)
			case float64:
				flat[prefix+k] = int64(v)
			}
		}
	}
	walk("", doc)
	return flat, err
}

// keys returns m's keys in order.
func keys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for f := range m {
		names = append(names, f)
	}
	sort.Strings(names)
	return names
}

// fields formats m as " name=value" pairs in name order, zeros left out.
func fields(m map[string]int64, verb string) string {
	var b strings.Builder
	for _, f := range keys(m) {
		if m[f] != 0 {
			fmt.Fprintf(&b, " %s="+verb, f, m[f])
		}
	}
	return b.String()
}

// result is one request's record: what it sent and had to get, its
// latency, and what went wrong: the exchange failed (transport) or the reply
// differs from the outcome (wrong).
type result struct {
	req              server.RunRequest
	want             outcome
	latency          time.Duration
	transport, wrong error
}

// send POSTs one /run request and returns the reply's status, body and
// latency. A client whose timeout is abandonAfter walks away from the
// connection mid-run, as a client that gives up does.
func send(client *http.Client, url string, req server.RunRequest) (int, []byte, time.Duration, error) {
	body, _ := json.Marshal(req) // plain fields and a program MarshalProgram wrote always marshal
	start := time.Now()
	resp, err := client.Post(url+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, time.Since(start), err
}

// getMetrics fetches /metrics, decoded and flattened.
func getMetrics(client *http.Client, url string) (m server.MetricsResponse, flat map[string]int64, err error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return m, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	if err == nil {
		err = json.Unmarshal(raw, &m)
	}
	if err == nil {
		flat, err = flatten(raw)
	}
	return m, flat, err
}

// loadReport is the -report JSON artifact: the run's shape, throughput,
// verdict counts and latency summary, plus the SLO verdict when a budget
// was set.
type loadReport struct {
	Requests        int              `json:"requests"`
	Workers         int              `json:"workers,omitempty"` // closed loop only
	OpenLoop        bool             `json:"open_loop"`
	RateTargetRPS   float64          `json:"rate_target_rps,omitempty"`
	RateAchievedRPS float64          `json:"rate_achieved_rps"`
	WallNS          int64            `json:"wall_ns"`
	Verified        map[string]int64 `json:"verified"` // requests that met their outcome, by row
	WrongVerdicts   int              `json:"wrong_verdicts"`
	TransportErrors int              `json:"transport_errors"`
	Latency         latencyReport    `json:"latency"`
	SLOP99NS        int64            `json:"slo_p99_ns,omitempty"`
	SLOP99Met       *bool            `json:"slo_p99_met,omitempty"`
}

// latencyReport summarises the latencies of the requests the server
// answered. Quantiles are exact, linearly interpolated between ranks.
type latencyReport struct {
	Count  int   `json:"count"`
	MeanNS int64 `json:"mean_ns"`
	P50NS  int64 `json:"p50_ns"`
	P90NS  int64 `json:"p90_ns"`
	P99NS  int64 `json:"p99_ns"`
	P999NS int64 `json:"p999_ns"`
	MaxNS  int64 `json:"max_ns"`
}

// summarizeLatency builds the latency summary of lats (nanoseconds), which
// it sorts in place.
func summarizeLatency(lats []float64) latencyReport {
	q := func(p float64) int64 { return int64(bench.Percentile(lats, p)) }
	return latencyReport{Count: len(lats), MeanNS: int64(bench.Mean(lats)),
		P50NS: q(50), P90NS: q(90), P99NS: q(99), P999NS: q(99.9), MaxNS: q(100)}
}
