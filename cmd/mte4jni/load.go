package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"math/rand"

	"mte4jni/internal/analysis"
	"mte4jni/internal/bench"
	"mte4jni/internal/pool"
	"mte4jni/internal/redteam"
	"mte4jni/internal/server"
)

// runLoad is the concurrent load generator for `mte4jni serve`. It fires n
// requests at the daemon across c connections — the canned safe probe, a
// built-in workload, every -fault-every-th request the canned
// deliberately-faulting probe, and every -reject-rate-th request a known
// provably-faulting inline program that the static admission screen must
// turn away with 422 — then prints a latency/fault summary and reconciles
// its own counts against the change in the server's /metrics over the run.
// Any verdict mismatch (a fault where none was injected, a missing fault
// where one was, a missing or malformed 422 rejection, a non-200 response,
// or metrics that do not add up) makes it exit nonzero.
func runLoad(args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	url := fs.String("url", "http://127.0.0.1:8321", "server base URL")
	n := fs.Int("n", 50, "total requests")
	c := fs.Int("c", 8, "concurrent workers (closed loop; -rate ignores it)")
	scheme := fs.String("scheme", "sync", "protection scheme for every request (none, guarded, sync, async)")
	workload := fs.String("workload", "", "run this built-in workload instead of the canned safe probe")
	iters := fs.Int("iters", 1, "workload iterations per request")
	faultEvery := fs.Int("fault-every", 0, "make every k-th request the deliberately-faulting OOB probe (0 = never)")
	rejectRate := fs.Int("reject-rate", 0, "make every k-th request a known-bad inline program the admission screen must reject with 422 (0 = never; wins over -fault-every)")
	cancelRate := fs.Int("cancel-rate", 0, "make every k-th request a runaway spin program whose connection the client abandons after -cancel-after (0 = never; the server must count it canceled_total and recycle the lease)")
	cancelAfter := fs.Duration("cancel-after", 50*time.Millisecond, "how long a -cancel-rate request runs before the client disconnects")
	deadlineRate := fs.Int("deadline-rate", 0, "make every k-th request a runaway spin program the server's -run-timeout must cut off with 504 (0 = never)")
	attackRate := fs.Int("attack-rate", 0, "make every k-th request the canned red-team attack probe as tenant \"redteam\" (0 = never; requires -c 1)")
	temporalRate := fs.Int("temporal-rate", 0, "make every k-th request a red-team corpus program under its risky scheme, which the temporal screen must flag — and, for the policy-rejected shapes, 422 with the provenance chain (0 = never)")
	attackDelayThreshold := fs.Int("attack-delay-threshold", 0, "mirror of the server's -attack-delay-threshold so the client replicates the escalation state machine for exact reconciliation")
	attackQuarantineThreshold := fs.Int("attack-quarantine-threshold", 0, "mirror of the server's -attack-quarantine-threshold")
	noReconcile := fs.Bool("no-reconcile", false, "skip the /metrics reconciliation (server is shared with other clients)")
	rate := fs.Float64("rate", 0, "open-loop arrival rate in req/s: requests launch on Poisson inter-arrival times regardless of completions, the queueing discipline real traffic applies (0 = closed loop over -c workers)")
	sloP99 := fs.Duration("slo-p99", 0, "fail (exit nonzero) when the run's p99 latency exceeds this budget (0 = no SLO gate)")
	reportFile := fs.String("report", "", "write a JSON report (throughput, latency percentiles, SLO verdict) to this file")
	tenantCount := fs.Int("tenants", 0, "spread requests across K tenants (load-tenant-*), picked shard-affine so each of the server's shards (as the /metrics baseline counts them; 1 under -no-reconcile) homes K/shards of them; K must be a multiple of the shard count, and no shard may then serve more than 2x the mean (0 = no tenant attribution)")
	fs.Parse(args)
	parsedScheme, err := server.ParseScheme(*scheme)
	if err != nil {
		return err
	}
	if *n <= 0 || *c <= 0 {
		return fmt.Errorf("load: -n and -c must be positive")
	}
	if *rate > 0 && *attackRate > 0 {
		return fmt.Errorf("load: -rate (open loop) and -attack-rate (order-dependent escalation) cannot be combined")
	}
	// The escalation state machine is sequential by nature — which probe
	// trips which tier depends on strict request order — so attack injection
	// demands a single worker.
	if *attackRate > 0 && *c != 1 {
		return fmt.Errorf("load: -attack-rate requires -c 1 (escalation accounting is order-dependent)")
	}
	// The attack probe is detected exactly when the scheme is an MTE one.
	expectDetect := parsedScheme.MTE()

	client := &http.Client{Timeout: 60 * time.Second}

	// Snapshot the server counters up front: reconciliation compares the
	// *change* over this run, so it works against warm servers too. The
	// baseline's per-shard rows also give the server's shard count.
	var before server.MetricsResponse
	shards := 1
	if !*noReconcile {
		if err := getJSON(client, *url+"/metrics", &before); err != nil {
			return fmt.Errorf("load: fetching /metrics baseline: %w", err)
		}
		shards = len(before.Pool.Shards)
	}
	if shards < 1 || *tenantCount%shards != 0 {
		return fmt.Errorf("load: -tenants %d is not a multiple of the server's %d shards", *tenantCount, shards)
	}

	// Tenant spread: K distinct tenants round-robined over the requests,
	// picked shard-affine — probe the shared affinity hash (the same FNV the
	// server routes with) until K/shards tenants home on each shard — so a
	// uniform request spread is a uniform shard spread by construction, and
	// the 2x-mean balance check below cannot be failed by hash luck.
	var tenantNames []string
	for shard := 0; shard < shards; shard++ {
		need := *tenantCount / shards
		for probe := 0; need > 0; probe++ {
			name := fmt.Sprintf("load-tenant-%d", probe)
			if int(pool.AffinityKey(name, parsedScheme.String())%uint64(shards)) == shard {
				tenantNames = append(tenantNames, name)
				need--
			}
			if probe > 1<<20 {
				return fmt.Errorf("load: no tenant name hashes to shard %d", shard)
			}
		}
	}

	// Marshal the reject corpus once; workers round-robin through it.
	var badProgs [][]byte
	for _, name := range pool.BadProgramNames {
		raw, err := analysis.MarshalProgram(pool.BadProgram(name))
		if err != nil {
			return fmt.Errorf("load: marshal %s: %w", name, err)
		}
		badProgs = append(badProgs, raw)
	}

	// The temporal corpus: four red-team attack shapes as inline programs,
	// each submitted under the scheme whose checker is exposed to it. Three
	// are provable faults the admission screen 422s (temporal findings riding
	// along in the verdict); the lost update is admitted by the fault screen
	// and rejected by the temporal policy — the server must run with the
	// default -temporal-policy reject for the script to hold.
	var temporalProgs []temporalEntry
	if *temporalRate > 0 {
		byName := make(map[string]redteam.CorpusProgram)
		for _, cp := range redteam.CorpusPrograms() {
			byName[cp.Name] = cp
		}
		for _, name := range []string{
			"async-window/damage", "gc-race/scan-window",
			"guardedcopy/oob-read", "guardedcopy/lost-update",
		} {
			cp, ok := byName[name]
			if !ok {
				return fmt.Errorf("load: temporal corpus missing %s", name)
			}
			raw, err := analysis.MarshalProgram(cp.Program)
			if err != nil {
				return fmt.Errorf("load: marshal %s: %w", name, err)
			}
			temporalProgs = append(temporalProgs, temporalEntry{
				raw: raw, scheme: cp.Scheme, class: string(cp.WantClass),
				policyReject: name == "guardedcopy/lost-update",
			})
		}
	}

	// The runaway probe for cancel/deadline injection: a pure countdown loop
	// the admission screen admits but no sane budget lets finish.
	var spinProg []byte
	if *cancelRate > 0 || *deadlineRate > 0 {
		raw, err := analysis.MarshalProgram(pool.SpinProgram(1 << 40))
		if err != nil {
			return fmt.Errorf("load: marshal spin program: %w", err)
		}
		spinProg = raw
	}

	outcomes := make([]loadOutcome, *n)
	var wg sync.WaitGroup
	// attackFaults is the client's replica of the server's per-tenant fault
	// count for tenant "redteam". Only touched when -attack-rate is set,
	// which forces a single worker, so plain state is race-free.
	attackFaults := 0
	doRequest := func(i int) {
		req := server.RunRequest{Scheme: *scheme}
		// Injection precedence: reject > cancel > deadline > attack >
		// fault.
		reject := *rejectRate > 0 && (i+1)%*rejectRate == 0
		temporal := !reject && *temporalRate > 0 && (i+1)%*temporalRate == 0
		canceled := !reject && !temporal && *cancelRate > 0 && (i+1)%*cancelRate == 0
		deadlined := !reject && !temporal && !canceled && *deadlineRate > 0 && (i+1)%*deadlineRate == 0
		attacked := !reject && !temporal && !canceled && !deadlined && *attackRate > 0 && (i+1)%*attackRate == 0
		injected := !reject && !temporal && !canceled && !deadlined && !attacked && *faultEvery > 0 && (i+1)%*faultEvery == 0
		var te temporalEntry
		if temporal {
			// Round-robin by injection ordinal so every corpus shape
			// gets an even share regardless of the rate.
			te = temporalProgs[((i+1) / *temporalRate - 1)%len(temporalProgs)]
		}
		switch {
		case reject:
			req.Program = badProgs[i%len(badProgs)]
		case temporal:
			req.Scheme = te.scheme
			req.Program = te.raw
		case canceled, deadlined:
			req.Program = spinProg
		case attacked:
			req.Canned = "attack"
			req.Tenant = "redteam"
		case injected:
			req.Canned = "oob"
		case *workload != "":
			req.Workload = *workload
			req.Iterations = *iters
		default:
			req.Canned = "safe"
		}
		// Attribute the request to its round-robin tenant so the
		// server's affinity router spreads the run across shards;
		// the attack probe keeps its fixed red-team identity.
		if req.Tenant == "" && len(tenantNames) > 0 {
			req.Tenant = tenantNames[i%len(tenantNames)]
		}
		switch {
		case temporal:
			outcomes[i] = fireTemporal(client, *url, req, te)
		case canceled:
			outcomes[i] = fireCancel(client, *url, req, *cancelAfter)
		case deadlined:
			outcomes[i] = fireDeadline(client, *url, req)
		case attacked:
			// Replicate the server's escalation state machine: the
			// tier in force for this admission follows from the
			// detected-fault count so far.
			expect429 := *attackQuarantineThreshold > 0 && attackFaults >= *attackQuarantineThreshold
			throttled := !expect429 && *attackDelayThreshold > 0 && attackFaults >= *attackDelayThreshold
			o := fireAttack(client, *url, req, expectDetect, expect429)
			o.throttled = throttled && o.err == nil && !o.refused
			if o.attackDetected {
				attackFaults++
			}
			outcomes[i] = o
		default:
			outcomes[i] = fire(client, *url, req, injected, reject)
		}
	}

	start := time.Now()
	if *rate > 0 {
		// Open loop: arrivals follow a Poisson process at -rate regardless
		// of completions — a slow server faces a growing backlog exactly as
		// it would behind real traffic, which is what makes the measured
		// percentiles honest SLO inputs (a closed loop slows its own
		// arrivals down when the server lags and flatters the tail).
		rng := rand.New(rand.NewSource(time.Now().UnixNano()))
		next := start
		for i := 0; i < *n; i++ {
			next = next.Add(time.Duration(rng.ExpFloat64() / *rate * float64(time.Second)))
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				doRequest(i)
			}(i)
		}
	} else {
		jobs := make(chan int)
		for w := 0; w < *c; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					doRequest(i)
				}
			}()
		}
		for i := 0; i < *n; i++ {
			jobs <- i
		}
		close(jobs)
	}
	wg.Wait()
	wall := time.Since(start)

	// Aggregate.
	var ok, faulted, injected, rejected, canceled, deadlined, failed int
	var attacked, attackDetected, attackRefused, attackThrottled int
	var elidedSites, invalidated int
	var temporalFlagged, temporalPolicyRejected int
	temporalByClass := make(map[string]int)
	lats := make([]float64, 0, *n) // ns
	for i, o := range outcomes {
		if o.err != nil {
			failed++
			if failed <= 5 {
				fmt.Fprintf(os.Stderr, "load: request %d: %v\n", i, o.err)
			}
			continue
		}
		// Elision accounting is summed over every response the server actually
		// sent; abandoned connections have no response and the runaway spin
		// program has no elidable sites, so aborts contribute exactly zero.
		elidedSites += o.elidedSites
		if o.invalidated {
			invalidated++
		}
		if o.throttled {
			attackThrottled++
		}
		if len(o.temporalClasses) > 0 {
			temporalFlagged++
			for _, c := range o.temporalClasses {
				temporalByClass[c]++
			}
		}
		switch {
		case o.canceled:
			// An abandoned connection has no server response, so no
			// meaningful latency sample either.
			canceled++
			continue
		case o.refused:
			// A 429'd attack probe never became a request.
			attackRefused++
			continue
		case o.attacked:
			attacked++
			if o.attackDetected {
				attackDetected++
			}
		case o.deadlined:
			deadlined++
		case o.temporalRejected:
			temporalPolicyRejected++
		case o.rejected:
			rejected++
		case o.faulted:
			faulted++
		default:
			ok++
		}
		lats = append(lats, float64(o.latency))
		if o.injected {
			injected++
		}
	}
	latRep := summarizeLatency(lats)
	// The open loop starts one goroutine per arrival and ignores -c, so it
	// has no worker count to report.
	shape := fmt.Sprintf("over %d workers", *c)
	workers := *c
	if *rate > 0 {
		shape, workers = "open loop", 0
	}
	fmt.Printf("load: %d requests %s in %v (%.0f req/s)\n",
		*n, shape, wall.Round(time.Millisecond), float64(*n)/wall.Seconds())
	fmt.Printf("  ok=%d faulted=%d (injected %d) rejected=%d canceled=%d deadlined=%d transport-errors=%d\n",
		ok, faulted, injected, rejected, canceled, deadlined, failed)
	fmt.Printf("  elision: guard-free sites=%d invalidated-runs=%d\n", elidedSites, invalidated)
	if *attackRate > 0 {
		fmt.Printf("  attack: probes=%d detected=%d throttled=%d refused-429=%d\n",
			attacked, attackDetected, attackThrottled, attackRefused)
	}
	if *temporalRate > 0 {
		fmt.Printf("  temporal: flagged=%d window-risk=%d scan-race=%d blindspot=%d policy-rejected=%d\n",
			temporalFlagged, temporalByClass[string(analysis.WindowRisk)],
			temporalByClass[string(analysis.WindowScanRace)],
			temporalByClass[string(analysis.WindowGuardedCopyBlindSpot)],
			temporalPolicyRejected)
	}
	if len(lats) > 0 {
		us := func(ns int64) time.Duration { return time.Duration(ns).Round(time.Microsecond) }
		fmt.Printf("  latency: p50=%v p90=%v p99=%v p999=%v max=%v\n",
			us(latRep.P50NS), us(latRep.P90NS), us(latRep.P99NS), us(latRep.P999NS), us(latRep.MaxNS))
	}
	if *rate > 0 {
		fmt.Printf("  open-loop: target=%.0f req/s achieved=%.0f req/s\n", *rate, float64(*n)/wall.Seconds())
	}
	if *reportFile != "" {
		rep := loadReport{
			Requests:        *n,
			Workers:         workers,
			OpenLoop:        *rate > 0,
			RateTargetRPS:   *rate,
			RateAchievedRPS: float64(*n) / wall.Seconds(),
			WallNS:          wall.Nanoseconds(),
			OK:              ok,
			Faulted:         faulted,
			Rejected:        rejected,
			Canceled:        canceled,
			Deadlined:       deadlined,
			TransportErrors: failed,
			Latency:         latRep,
		}
		if *sloP99 > 0 {
			rep.SLOP99NS = sloP99.Nanoseconds()
			met := time.Duration(latRep.P99NS) <= *sloP99
			rep.SLOP99Met = &met
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*reportFile, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("load: writing report: %w", err)
		}
	}

	if failed > 0 {
		return fmt.Errorf("load: %d requests failed at the transport/HTTP layer", failed)
	}
	if faulted != injected {
		return fmt.Errorf("load: fault verdicts off: %d faults observed, %d injected", faulted, injected)
	}

	if !*noReconcile {
		// A client-side disconnect is observed by the server asynchronously:
		// the interpreter notices on its next cancellation poll, counts the
		// abort, and releases the lease *after* the client has already moved
		// on. Poll until the abort counters and the lease ledger settle
		// before comparing deltas.
		var after server.MetricsResponse
		settleBy := time.Now().Add(15 * time.Second)
		for {
			if err := getJSON(client, *url+"/metrics", &after); err != nil {
				return fmt.Errorf("load: fetching /metrics: %w", err)
			}
			settled := after.CanceledTotal-before.CanceledTotal >= uint64(canceled) &&
				after.Pool.Leased == 0
			if settled || time.Now().After(settleBy) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		dRequests := after.RequestsTotal - before.RequestsTotal
		dFaults := after.FaultsTotal - before.FaultsTotal
		dQuarantined := after.Pool.Quarantined - before.Pool.Quarantined
		dScreened := after.ScreenedTotal - before.ScreenedTotal
		dRejected := after.ScreenRejectedTotal - before.ScreenRejectedTotal
		dCacheHits := after.ScreenCacheHits - before.ScreenCacheHits
		dCanceled := after.CanceledTotal - before.CanceledTotal
		dDeadline := after.DeadlineExceededTotal - before.DeadlineExceededTotal
		dErrors := after.ErrorsTotal - before.ErrorsTotal
		dCanceledLeases := after.Pool.CanceledLeases - before.Pool.CanceledLeases
		dElided := after.ElidedSitesTotal - before.ElidedSitesTotal
		dInvalidated := after.ElisionInvalidatedTotal - before.ElisionInvalidatedTotal
		dAttackProbes := after.AttackProbesTotal - before.AttackProbesTotal
		dDetections := after.DetectionsTotal - before.DetectionsTotal
		dThrottled := after.Pool.ThrottledTotal - before.Pool.ThrottledTotal
		dReseeds := after.Pool.ReseedsTotal - before.Pool.ReseedsTotal
		dTenantsQuar := after.Pool.TenantsQuarantined - before.Pool.TenantsQuarantined
		fmt.Printf("  server: +requests=%d +faults=%d +screened=%d +rejected=%d +cache-hits=%d +quarantined=%d\n",
			dRequests, dFaults, dScreened, dRejected, dCacheHits, dQuarantined)
		fmt.Printf("  server: +elided-sites=%d +elision-invalidated=%d\n", dElided, dInvalidated)
		if canceled+deadlined > 0 {
			fmt.Printf("  server: +canceled=%d +deadline-exceeded=%d +canceled-leases=%d leased-now=%d\n",
				dCanceled, dDeadline, dCanceledLeases, after.Pool.Leased)
		}
		// Abort accounting must be exact: every client disconnect and every
		// deadline cutoff shows up in its counter, exactly once, and never
		// doubles as an error.
		if dCanceled != uint64(canceled) {
			return fmt.Errorf("load: canceled_total off: server counted +%d, client abandoned %d requests", dCanceled, canceled)
		}
		if dDeadline != uint64(deadlined) {
			return fmt.Errorf("load: deadline_exceeded_total off: server counted +%d, client expected %d", dDeadline, deadlined)
		}
		if dErrors != 0 {
			return fmt.Errorf("load: +%d errors_total: aborts or faults misclassified as errors", dErrors)
		}
		// Elision accounting is exact, with no cancel tolerance: every
		// guard-free site the server credited came back in a response the
		// client summed (aborted runs carry zero elidable sites), and a proof
		// invalidation anywhere is a loud soundness event, never absorbed.
		if dElided != uint64(elidedSites) {
			return fmt.Errorf("load: elided_sites_total off: server credited +%d guard-free sites, client responses summed %d", dElided, elidedSites)
		}
		if dInvalidated != uint64(invalidated) {
			return fmt.Errorf("load: elision_invalidated_total off: server counted +%d fallbacks, client observed %d", dInvalidated, invalidated)
		}
		if after.Pool.Leased != 0 {
			return fmt.Errorf("load: %d leases still outstanding after drain: leaked lease", after.Pool.Leased)
		}
		if dCanceledLeases > uint64(canceled+deadlined) {
			return fmt.Errorf("load: +%d canceled leases for %d injected aborts", dCanceledLeases, canceled+deadlined)
		}
		// A rejected program never becomes a request: the screen turns it
		// away before a session is leased or a request observed. An
		// abandoned connection usually completes as a 499 request, but a
		// cancel landing before the run starts legitimately short-circuits
		// earlier — hence the canceled-wide tolerance (and exactness when no
		// cancels were injected).
		// A refused (429) attack probe never becomes a request; a detected
		// one faults and quarantines its session exactly like an injected
		// OOB probe.
		wantFaults := uint64(faulted + attackDetected)
		wantReqMax := uint64(*n - rejected - temporalPolicyRejected - attackRefused)
		wantReqMin := wantReqMax - uint64(canceled)
		if dRequests > wantReqMax || dRequests < wantReqMin || dFaults != wantFaults {
			return fmt.Errorf("load: metrics do not reconcile: server saw +%d requests / +%d faults, client expected +%d..%d / +%d",
				dRequests, dFaults, wantReqMin, wantReqMax, wantFaults)
		}
		if dQuarantined != wantFaults {
			return fmt.Errorf("load: %d faults but +%d sessions quarantined", wantFaults, dQuarantined)
		}
		if *attackRate > 0 {
			fmt.Printf("  server: +attack-probes=%d +detections=%d +throttled=%d +reseeds=%d +tenants-quarantined=%d +sessions-reseeded=%d\n",
				dAttackProbes, dDetections, dThrottled, dReseeds, dTenantsQuar,
				after.Pool.SessionsReseeded-before.Pool.SessionsReseeded)
		}
		// Adversarial accounting is exact: every served probe counts once,
		// every detection counts once, and the escalation counters follow
		// the client's replica of the state machine with no tolerance.
		if dAttackProbes != uint64(attacked) {
			return fmt.Errorf("load: attack_probes_total off: server counted +%d, client sent %d served probes", dAttackProbes, attacked)
		}
		if dDetections != uint64(attackDetected) {
			return fmt.Errorf("load: detections_total off: server counted +%d, client observed %d detected probes", dDetections, attackDetected)
		}
		if dThrottled != uint64(attackThrottled) {
			return fmt.Errorf("load: throttled_total off: server counted +%d, client expected %d delay-tier admissions", dThrottled, attackThrottled)
		}
		// Tier crossings are a pure function of the detected-fault count and
		// the mirrored thresholds.
		expReseeds := 0
		// The delay tier is only ever entered when its threshold sits below
		// the quarantine threshold (otherwise the tenant jumps straight to
		// quarantine in a single crossing).
		delayReachable := *attackDelayThreshold > 0 &&
			(*attackQuarantineThreshold == 0 || *attackDelayThreshold < *attackQuarantineThreshold)
		if delayReachable && attackDetected >= *attackDelayThreshold {
			expReseeds++
		}
		expTenantsQuar := 0
		if *attackQuarantineThreshold > 0 && attackDetected >= *attackQuarantineThreshold {
			expReseeds++
			expTenantsQuar = 1
		}
		if dReseeds != uint64(expReseeds) {
			return fmt.Errorf("load: reseeds_total off: server counted +%d tier crossings, client expected %d", dReseeds, expReseeds)
		}
		if dTenantsQuar != uint64(expTenantsQuar) {
			return fmt.Errorf("load: tenants_quarantined_total off: server counted +%d, client expected %d", dTenantsQuar, expTenantsQuar)
		}
		// Temporal accounting is exact: every corpus submission was flagged
		// under its expected window class, and only the policy rejections —
		// exposed shapes the fault screen admitted — count as temporal
		// rejections; the provable faults ride screen_rejected_total instead.
		dTemporalFlagged := after.TemporalFlaggedTotal - before.TemporalFlaggedTotal
		dTemporalRejected := after.TemporalRejectedTotal - before.TemporalRejectedTotal
		dWindowRisk := after.TemporalWindowRisk - before.TemporalWindowRisk
		dScanRace := after.TemporalScanRace - before.TemporalScanRace
		dBlindSpot := after.TemporalBlindSpot - before.TemporalBlindSpot
		if *temporalRate > 0 {
			fmt.Printf("  server: +temporal-flagged=%d +window-risk=%d +scan-race=%d +blindspot=%d +temporal-rejected=%d\n",
				dTemporalFlagged, dWindowRisk, dScanRace, dBlindSpot, dTemporalRejected)
		}
		if dTemporalFlagged != uint64(temporalFlagged) ||
			dWindowRisk != uint64(temporalByClass[string(analysis.WindowRisk)]) ||
			dScanRace != uint64(temporalByClass[string(analysis.WindowScanRace)]) ||
			dBlindSpot != uint64(temporalByClass[string(analysis.WindowGuardedCopyBlindSpot)]) {
			return fmt.Errorf("load: temporal counters do not reconcile: server flagged +%d (risk %d / race %d / blindspot %d), client submitted %d (%v)",
				dTemporalFlagged, dWindowRisk, dScanRace, dBlindSpot, temporalFlagged, temporalByClass)
		}
		if dTemporalRejected != uint64(temporalPolicyRejected) {
			return fmt.Errorf("load: temporal_rejected_total off: server counted +%d, client expected %d policy rejections",
				dTemporalRejected, temporalPolicyRejected)
		}
		// Inline programs — bad ones and runaway spins alike — all pass the
		// admission screen; only the bad ones are rejected. Cancels that
		// disconnected before screening shave the screened total, same
		// tolerance as requests above. A temporal corpus submission is
		// screened whichever way it is ultimately turned away.
		wantScreenMax := uint64(rejected + temporalPolicyRejected + canceled + deadlined)
		wantScreenMin := wantScreenMax - uint64(canceled)
		if dScreened > wantScreenMax || dScreened < wantScreenMin || dRejected != uint64(rejected) {
			return fmt.Errorf("load: screening counters do not reconcile: server screened +%d (want %d..%d) / rejected +%d (want %d)",
				dScreened, wantScreenMin, wantScreenMax, dRejected, rejected)
		}
		// All but the first (cold) screening of each distinct program must
		// be verdict-cache hits.
		distinct := 0
		if rejected > 0 {
			distinct += len(badProgs)
		}
		if canceled+deadlined > 0 {
			distinct++ // the spin program
		}
		if temporalFlagged > 0 {
			d := len(temporalProgs)
			if temporalFlagged < d {
				d = temporalFlagged
			}
			distinct += d
		}
		if dScreened > 0 && dCacheHits+uint64(distinct) < dScreened {
			return fmt.Errorf("load: screen cache ineffective: +%d hits for %d screenings over %d distinct programs",
				dCacheHits, dScreened, distinct)
		}
		// Per-shard ledger reconciliation. The pool accounts every lease to
		// exactly one shard's tokens (shard_leases_total moves only where
		// created/reused moves), so the shard sums must reproduce the
		// pool-level counters to the unit — and, with no aborts in flight,
		// match the served request count exactly. Shedding is decided at a
		// shard's queue, so shard_shed_total sums to the pool's rejected.
		sh := after.Pool.Shards
		if len(sh) != shards {
			return fmt.Errorf("load: server reports %d shards, %d at the baseline", len(sh), shards)
		}
		var dLeases, dSteals, dShed, dCreated, dReused, maxLeases uint64
		leaseDeltas := make([]uint64, len(sh))
		for i, a := range sh {
			b := before.Pool.Shards[i]
			if a.Leased != 0 || a.Waiters != 0 {
				return fmt.Errorf("load: shard %d not drained: leased=%d waiters=%d", i, a.Leased, a.Waiters)
			}
			leaseDeltas[i] = a.Leases - b.Leases
			dLeases += leaseDeltas[i]
			dSteals += a.Steals - b.Steals
			dShed += a.Shed - b.Shed
			dCreated += a.Created - b.Created
			dReused += a.Reused - b.Reused
			if leaseDeltas[i] > maxLeases {
				maxLeases = leaseDeltas[i]
			}
		}
		fmt.Printf("  shards: leases=%v steals=%d shed=%d (created+reused=%d)\n",
			leaseDeltas, dSteals, dShed, dCreated+dReused)
		if dLeases != dCreated+dReused {
			return fmt.Errorf("load: shard lease ledger off: shards sum +%d leases, pool counted +%d created and +%d reused", dLeases, dCreated, dReused)
		}
		dPoolRejected := after.Pool.Rejected - before.Pool.Rejected
		if dShed != dPoolRejected {
			return fmt.Errorf("load: shard shed ledger off: shards sum +%d, pool rejected +%d", dShed, dPoolRejected)
		}
		if canceled == 0 && deadlined == 0 && attackRefused == 0 && dLeases != dRequests {
			return fmt.Errorf("load: +%d shard leases for +%d served requests", dLeases, dRequests)
		}
		// Balance: the affine tenant spread puts the same number of tenants
		// on every shard, so uniform traffic must spread within 2x of the
		// mean — skew here means routing or stealing is hoarding leases on
		// one shard.
		if *tenantCount > 0 {
			mean := float64(dLeases) / float64(len(sh))
			if mean > 0 && float64(maxLeases) > 2*mean {
				return fmt.Errorf("load: shard imbalance: max +%d leases against mean %.1f (uniform affine load must stay within 2x)", maxLeases, mean)
			}
		}
	}
	if *sloP99 > 0 {
		if p99 := time.Duration(latRep.P99NS); p99 > *sloP99 {
			return fmt.Errorf("load: p99 SLO violated: %v against a %v budget", p99, *sloP99)
		}
		fmt.Printf("  slo: p99=%v within the %v budget\n", time.Duration(latRep.P99NS), *sloP99)
	}
	return nil
}

// loadReport is the -report JSON artifact: the run's shape, throughput and
// latency summary, plus the SLO verdict when a budget was set.
type loadReport struct {
	Requests        int           `json:"requests"`
	Workers         int           `json:"workers,omitempty"` // closed loop only
	OpenLoop        bool          `json:"open_loop"`
	RateTargetRPS   float64       `json:"rate_target_rps,omitempty"`
	RateAchievedRPS float64       `json:"rate_achieved_rps"`
	WallNS          int64         `json:"wall_ns"`
	OK              int           `json:"ok"`
	Faulted         int           `json:"faulted"`
	Rejected        int           `json:"rejected"`
	Canceled        int           `json:"canceled"`
	Deadlined       int           `json:"deadlined"`
	TransportErrors int           `json:"transport_errors"`
	Latency         latencyReport `json:"latency"`
	SLOP99NS        int64         `json:"slo_p99_ns,omitempty"`
	SLOP99Met       *bool         `json:"slo_p99_met,omitempty"`
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
	return latencyReport{
		Count:  len(lats),
		MeanNS: int64(bench.Mean(lats)),
		P50NS:  q(50),
		P90NS:  q(90),
		P99NS:  q(99),
		P999NS: q(99.9),
		MaxNS:  q(100),
	}
}

// loadOutcome is one request's client-side classification.
type loadOutcome struct {
	latency     time.Duration
	faulted     bool
	injected    bool
	rejected    bool
	canceled    bool
	deadlined   bool
	elidedSites int
	invalidated bool
	// Attack-probe classification: attacked marks a served probe,
	// attackDetected that the scheme caught it, refused a 429 from the
	// quarantine tier, throttled an admission the client expected to pay
	// the delay-tier penalty.
	attacked       bool
	attackDetected bool
	refused        bool
	throttled      bool
	// Temporal-screen classification: temporalClasses are the distinct
	// window classes the response's verdict was flagged with (any screened
	// submission can carry findings, including the bad-program corpus);
	// temporalRejected marks a policy rejection — an exposed shape the fault
	// screen admitted, counted in temporal_rejected_total rather than
	// screen_rejected_total.
	temporalClasses  []string
	temporalRejected bool
	err              error
}

// temporalClasses extracts the distinct window classes from a screen
// verdict, mirroring the server's per-verdict set semantics for the
// per-class temporal counters.
func temporalClasses(v *analysis.ScreenVerdict) []string {
	var out []string
	seen := make(map[string]bool)
	for _, f := range v.Temporal {
		c := string(f.Class)
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// temporalEntry is one red-team corpus program the load generator submits
// under its risky scheme, with the temporal verdict it holds the server to.
type temporalEntry struct {
	raw          []byte
	scheme       string
	class        string
	policyReject bool
}

// fire sends one /run request and classifies the outcome. A response is an
// error unless its verdict matches what was asked for: injected requests
// must come back 200 with a structured fault report, reject submissions
// must come back 422 with a structured screen verdict, and clean requests
// must do neither.
func fire(client *http.Client, base string, req server.RunRequest, injected, reject bool) (o loadOutcome) {
	o.injected = injected
	body, err := json.Marshal(req)
	if err != nil {
		o.err = err
		return o
	}
	start := time.Now()
	resp, err := client.Post(base+"/run", "application/json", bytes.NewReader(body))
	o.latency = time.Since(start)
	if err != nil {
		o.err = err
		return o
	}
	defer resp.Body.Close()
	if reject {
		o.rejected = resp.StatusCode == http.StatusUnprocessableEntity
		if !o.rejected {
			o.err = fmt.Errorf("bad program not rejected: status %d", resp.StatusCode)
			return o
		}
		var rej server.RejectResponse
		if err := json.NewDecoder(resp.Body).Decode(&rej); err != nil {
			o.err = fmt.Errorf("decoding 422 body: %w", err)
			return o
		}
		v := rej.Verdict
		if v == nil || !v.Rejected() || v.PC < 0 || v.Native == "" || len(v.Provenance) == 0 {
			o.err = fmt.Errorf("422 without a structured verdict: %+v", rej)
			return o
		}
		o.temporalClasses = temporalClasses(v)
		return o
	}
	var out server.RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		o.err = fmt.Errorf("decoding response (status %d): %w", resp.StatusCode, err)
		return o
	}
	if resp.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("status %d", resp.StatusCode)
		return o
	}
	o.faulted = out.Fault != nil
	o.elidedSites = out.ElidedSites
	o.invalidated = out.ElisionInvalidated
	if injected && out.Fault == nil {
		o.err = fmt.Errorf("injected fault came back clean (session %s)", out.Session)
	}
	if !injected && out.Fault != nil {
		o.err = fmt.Errorf("unexpected fault on session %s: %s", out.Session, out.Fault.Signature)
	}
	if !injected && out.Error != "" {
		o.err = fmt.Errorf("session %s: %s", out.Session, out.Error)
	}
	// The canned safe probe is screened VerdictSafe, so its proofs must have
	// compiled into at least one guard-free site; a fully checked safe run
	// means the elision pipeline silently fell apart.
	if req.Canned == "safe" && o.err == nil {
		if out.ElidedSites == 0 {
			o.err = fmt.Errorf("session %s: safe probe ran fully checked: no elided sites in response", out.Session)
		}
		if out.ElisionInvalidated {
			o.err = fmt.Errorf("session %s: safe probe's elision proofs were invalidated mid-run", out.Session)
		}
	}
	return o
}

// fireCancel sends a runaway /run request and abandons the connection after
// cancelAfter, simulating a client that walks away mid-run. Success is the
// client-side context error: the server never gets to answer. If a response
// does come back the runaway finished before the disconnect — either the
// server is missing -run-timeout/-step-budget headroom or the spin was too
// short — and the outcome is an error because the server will not have
// counted a cancel.
func fireCancel(client *http.Client, base string, req server.RunRequest, cancelAfter time.Duration) (o loadOutcome) {
	body, err := json.Marshal(req)
	if err != nil {
		o.err = err
		return o
	}
	ctx, cancel := context.WithTimeout(context.Background(), cancelAfter)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/run", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	hreq.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := client.Do(hreq)
	o.latency = time.Since(start)
	if err == nil {
		resp.Body.Close()
		o.err = fmt.Errorf("abandoned runaway completed before the disconnect (status %d): cancel not injected", resp.StatusCode)
		return o
	}
	o.canceled = true
	return o
}

// fireAttack sends one canned attack probe as the red-team tenant and
// holds the server to the deterministic script: a quarantined tenant gets
// exactly 429, an admitted probe gets 200 with a fault verdict matching
// the scheme (detected under MTE, landed silently otherwise).
func fireAttack(client *http.Client, base string, req server.RunRequest, expectDetect, expect429 bool) (o loadOutcome) {
	body, err := json.Marshal(req)
	if err != nil {
		o.err = err
		return o
	}
	start := time.Now()
	resp, err := client.Post(base+"/run", "application/json", bytes.NewReader(body))
	o.latency = time.Since(start)
	if err != nil {
		o.err = err
		return o
	}
	defer resp.Body.Close()
	if expect429 {
		if resp.StatusCode != http.StatusTooManyRequests {
			o.err = fmt.Errorf("quarantined tenant not refused: status %d, want 429", resp.StatusCode)
			return o
		}
		o.refused = true
		return o
	}
	var out server.RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		o.err = fmt.Errorf("decoding response (status %d): %w", resp.StatusCode, err)
		return o
	}
	if resp.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("attack probe: status %d", resp.StatusCode)
		return o
	}
	o.attacked = true
	o.attackDetected = out.Fault != nil
	if o.attackDetected != expectDetect {
		o.err = fmt.Errorf("attack probe verdict off on session %s: detected=%v, scheme predicts %v",
			out.Session, o.attackDetected, expectDetect)
	}
	return o
}

// fireTemporal submits one red-team corpus program under its risky scheme
// and requires the 422 to carry the temporal evidence: a finding of the
// expected window class with the full alloc → acquire → interfering-write →
// late-check provenance chain. The provably-faulting shapes ride the
// ordinary screen rejection; the policy-rejected shapes must come back with
// a clean fault verdict and the temporal policy as the sole reason.
func fireTemporal(client *http.Client, base string, req server.RunRequest, te temporalEntry) (o loadOutcome) {
	body, err := json.Marshal(req)
	if err != nil {
		o.err = err
		return o
	}
	start := time.Now()
	resp, err := client.Post(base+"/run", "application/json", bytes.NewReader(body))
	o.latency = time.Since(start)
	if err != nil {
		o.err = err
		return o
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		o.err = fmt.Errorf("temporal corpus program (%s under %s) not rejected: status %d", te.class, te.scheme, resp.StatusCode)
		return o
	}
	var rej server.RejectResponse
	if err := json.NewDecoder(resp.Body).Decode(&rej); err != nil {
		o.err = fmt.Errorf("decoding 422 body: %w", err)
		return o
	}
	v := rej.Verdict
	if v == nil || len(v.Temporal) == 0 {
		o.err = fmt.Errorf("422 without temporal findings: %+v", rej)
		return o
	}
	f := v.Temporal[0]
	if string(f.Class) != te.class {
		o.err = fmt.Errorf("temporal class %q, want %q", f.Class, te.class)
		return o
	}
	if len(f.Chain) != 4 {
		o.err = fmt.Errorf("provenance chain has %d steps, want the full 4: %q", len(f.Chain), f.Chain.String())
		return o
	}
	o.temporalClasses = temporalClasses(v)
	if te.policyReject {
		if v.Rejected() {
			o.err = fmt.Errorf("policy-reject shape %q came back as a fault verdict", te.class)
			return o
		}
		o.temporalRejected = true
	} else {
		if !v.Rejected() {
			o.err = fmt.Errorf("provably-faulting shape %q not rejected by the fault screen", te.class)
			return o
		}
		o.rejected = true
	}
	return o
}

// fireDeadline sends a runaway /run request and requires the server's
// -run-timeout to cut it off: a 504 carrying abort="deadline_exceeded".
func fireDeadline(client *http.Client, base string, req server.RunRequest) (o loadOutcome) {
	body, err := json.Marshal(req)
	if err != nil {
		o.err = err
		return o
	}
	start := time.Now()
	resp, err := client.Post(base+"/run", "application/json", bytes.NewReader(body))
	o.latency = time.Since(start)
	if err != nil {
		o.err = err
		return o
	}
	defer resp.Body.Close()
	var out server.RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		o.err = fmt.Errorf("decoding response (status %d): %w", resp.StatusCode, err)
		return o
	}
	if resp.StatusCode != http.StatusGatewayTimeout || out.Abort != "deadline_exceeded" {
		o.err = fmt.Errorf("runaway not cut off by -run-timeout: status %d abort=%q (is the server running with -run-timeout?)",
			resp.StatusCode, out.Abort)
		return o
	}
	o.deadlined = true
	// The spin program has no elidable sites, but sum whatever the server
	// reported so the reconciliation stays exact rather than assumed.
	o.elidedSites = out.ElidedSites
	o.invalidated = out.ElisionInvalidated
	return o
}

func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
