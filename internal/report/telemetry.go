package report

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"mte4jni/internal/exec"
	"mte4jni/internal/mte"
)

// Telemetry sink for the serving layer: the fleet-scale aggregation story a
// single-process crash report lacks. Every MTE fault a served session hits
// is folded into a bounded ring buffer of structured records and deduplicated
// by fault signature, and every request contributes to the request/fault/
// latency counters the daemon exports on /metrics. The sink is its own
// synchronization domain — many serving goroutines record into one sink.

// FaultSignature identifies a fault class for deduplication: the same
// reported PC with the same tag pair in the same check mode against the same
// workload is one bug hit many times, not many bugs.
type FaultSignature struct {
	// PC is the frame label the fault was reported at.
	PC string `json:"pc"`
	// PtrTag and MemTag are the mismatching tag pair.
	PtrTag mte.Tag `json:"ptr_tag"`
	MemTag mte.Tag `json:"mem_tag"`
	// Async distinguishes sync from async detection.
	Async bool `json:"async"`
	// Workload names what the session was running ("PDF Renderer", a
	// program name, ...).
	Workload string `json:"workload"`
}

// SignatureOf derives the dedup signature of a fault hit while running the
// named workload.
func SignatureOf(f *mte.Fault, workload string) FaultSignature {
	return FaultSignature{PC: f.PC, PtrTag: f.PtrTag, MemTag: f.MemTag, Async: f.Async, Workload: workload}
}

// String renders the signature as a stable one-line key.
func (s FaultSignature) String() string {
	mode := "sync"
	if s.Async {
		mode = "async"
	}
	return fmt.Sprintf("pc=%s tags=%s/%s mode=%s workload=%s", s.PC, s.PtrTag, s.MemTag, mode, s.Workload)
}

// FaultRecord is one structured fault occurrence, as stored in the ring and
// returned to /run callers.
type FaultRecord struct {
	// Seq is the 1-based global fault sequence number.
	Seq uint64 `json:"seq"`
	// UnixNano is the sink-local record time.
	UnixNano int64 `json:"unix_nano"`
	// Session is the serving session the fault quarantined.
	Session string `json:"session"`
	// Signature is the dedup key.
	Signature FaultSignature `json:"signature"`
	// Kind, Access, Ptr and Size copy the fault's non-signature detail.
	Kind   string `json:"kind"`
	Access string `json:"access"`
	Ptr    string `json:"ptr"`
	Size   int    `json:"size"`
	// Report is the rendered logcat-style tombstone.
	Report string `json:"report,omitempty"`
}

// SignatureCount is one dedup bucket in a telemetry snapshot.
type SignatureCount struct {
	Signature FaultSignature `json:"signature"`
	Count     uint64         `json:"count"`
	FirstSeq  uint64         `json:"first_seq"`
	LastSeq   uint64         `json:"last_seq"`
}

// latencyBucketsUS are the upper bounds (µs) of the latency histogram; the
// final implicit bucket is +inf.
var latencyBucketsUS = []uint64{50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000}

// LatencySummary aggregates request latencies.
type LatencySummary struct {
	Count uint64 `json:"count"`
	SumNS uint64 `json:"sum_ns"`
	MaxNS uint64 `json:"max_ns"`
	// BucketsUS maps each latencyBucketsUS bound (plus "+inf" at the end)
	// to a cumulative-free count of requests that landed under it.
	BucketsUS []uint64 `json:"buckets_us"`
}

// SpanStat aggregates one lifecycle phase's timings across requests, built
// from the per-request exec.Context span recorders.
type SpanStat struct {
	Phase string `json:"phase"`
	Count uint64 `json:"count"`
	SumNS uint64 `json:"sum_ns"`
	MaxNS uint64 `json:"max_ns"`
}

// TagTableStats is the storage slice of a telemetry snapshot, pulled live
// from the pool's per-session spaces: internal/mem's two-level tag table
// and its paged data plane. The *_total fields are monotonic across session
// retirement; the byte fields are gauges over currently live sessions.
type TagTableStats struct {
	// TagPagesMaterialized counts copy-on-tag page materializations;
	// TagPagesUniform counts full-page retags satisfied by a canonical
	// uniform-page swap; TagZeroDedupHits counts pages deduplicated against
	// the shared zero page (fresh mappings plus full-page tag clears).
	TagPagesMaterialized uint64 `json:"tag_pages_materialized_total"`
	TagPagesUniform      uint64 `json:"tag_pages_uniform_total"`
	TagZeroDedupHits     uint64 `json:"tag_zero_dedup_hits_total"`
	// TagDirBytes is the directory storage live sessions pay: one 8-byte
	// entry per 16 KiB of each MTE mapping, built at map time.
	TagDirBytes uint64 `json:"tag_dir_bytes"`
	// TagBytesResident is the tag storage live sessions actually pay
	// (materialized pages + directories); TagBytesFlatEquiv is what the
	// pre-hierarchical flat array would pay for the same mappings. Their
	// ratio is the footprint reduction the two-level table buys.
	TagBytesResident  uint64 `json:"tag_bytes_resident"`
	TagBytesFlatEquiv uint64 `json:"tag_bytes_flat_equiv"`
	// DataPagesMaterialized counts data pages a first store filled in
	// (internal/mem's paged data plane); DataBytesResident is the data
	// memory live sessions hold (materialized pages + page directories)
	// and DataBytesMapped their mapped heap bytes. Their ratio is what
	// lazily backed memory saves over eagerly zeroed heaps.
	DataPagesMaterialized uint64 `json:"data_pages_materialized_total"`
	DataBytesResident     uint64 `json:"data_bytes_resident"`
	DataBytesMapped       uint64 `json:"data_bytes_mapped"`
}

// probeBucketBounds are the upper bounds of the probes-to-detect histogram
// (the final implicit bucket is +inf). Powers of two because the analytic
// detect-within-k curve 1-(1/16)^k is the reference the campaign gates
// against at the same points.
var probeBucketBounds = []int{1, 2, 4, 8, 16}

// AttackSchemeStat is one protection scheme's adversarial scorecard.
type AttackSchemeStat struct {
	Scheme     string `json:"scheme"`
	Probes     uint64 `json:"probes"`
	Detections uint64 `json:"detections"`
	// DetectionProbability is Detections/Probes — per-probe, so it is
	// directly comparable to the analytic 15/16 brute-force model.
	DetectionProbability float64 `json:"detection_probability"`
}

// AttackTelemetry is the adversarial slice of a snapshot: every attack
// probe served, how many the scheme detected, the per-scheme detection
// probability, and the probes/time-to-detect histograms.
type AttackTelemetry struct {
	AttackProbesTotal uint64             `json:"attack_probes_total"`
	DetectionsTotal   uint64             `json:"detections_total"`
	AttackSchemes     []AttackSchemeStat `json:"attack_schemes,omitempty"`
	// ProbesToDetectBuckets counts detections by how many probes the
	// attacker got in before the verdict, under probeBucketBounds (+inf
	// last); TimeToDetectBucketsUS is the same by wall clock, under
	// latencyBucketsUS.
	ProbesToDetectBuckets []uint64 `json:"probes_to_detect_buckets,omitempty"`
	TimeToDetectBucketsUS []uint64 `json:"time_to_detect_buckets_us,omitempty"`
}

// TelemetrySnapshot is the /metrics payload.
type TelemetrySnapshot struct {
	RequestsTotal       uint64 `json:"requests_total"`
	FaultsTotal         uint64 `json:"faults_total"`
	ErrorsTotal         uint64 `json:"errors_total"`
	ScreenedTotal       uint64 `json:"screened_total"`
	ScreenRejectedTotal uint64 `json:"screen_rejected_total"`
	ScreenCacheHits     uint64 `json:"screen_cache_hits"`
	// Abort counters: requests ended by client cancellation, by the per-run
	// deadline, and by interpreter fuel exhaustion. Disjoint from
	// FaultsTotal — an abort is a policy cutoff, not a memory fault.
	CanceledTotal         uint64 `json:"canceled_total"`
	DeadlineExceededTotal uint64 `json:"deadline_exceeded_total"`
	StepsExceededTotal    uint64 `json:"steps_exceeded_total"`
	// PanicsTotal counts runs a Go panic ended (a bug in a native body or
	// the runtime, not a simulated signal): each was answered 500 and its
	// session retired. Such requests also count in ErrorsTotal.
	PanicsTotal uint64 `json:"panics_total"`
	// Elision counters: the total number of statically proven guard-free
	// sites bound into served runs, and how many proof-carrying runs fell
	// back to checked access (digest mismatch, remap, release retirement).
	ElidedSitesTotal        uint64 `json:"elided_sites_total"`
	ElisionInvalidatedTotal uint64 `json:"elision_invalidated_total"`
	// Temporal-screening counters: screened programs the temporal effect
	// domain flagged with at least one exposed window, the per-class
	// breakdown (set semantics: one per class present in the verdict), and
	// how many admissions the -temporal-policy rejected outright.
	TemporalFlaggedTotal  uint64 `json:"temporal_flagged_total"`
	TemporalWindowRisk    uint64 `json:"temporal_window_risk_total"`
	TemporalBlindSpot     uint64 `json:"temporal_guardedcopy_blindspot_total"`
	TemporalScanRace      uint64 `json:"temporal_scan_race_total"`
	TemporalRejectedTotal uint64 `json:"temporal_rejected_total"`
	// TagTableStats surfaces the hierarchical tag-storage counters when a
	// provider is wired (SetTagStatsProvider); flat zeros otherwise.
	TagTableStats
	// AttackTelemetry surfaces the adversarial counters (ObserveAttackProbe).
	AttackTelemetry
	UniqueFaultSignatures int              `json:"unique_fault_signatures"`
	DroppedFaultRecords   uint64           `json:"dropped_fault_records"`
	Latency               LatencySummary   `json:"latency"`
	Spans                 []SpanStat       `json:"request_spans,omitempty"`
	Signatures            []SignatureCount `json:"fault_signatures,omitempty"`
	Recent                []FaultRecord    `json:"recent_faults,omitempty"`
}

// DefaultSinkCapacity bounds the fault ring when NewSink is given zero.
const DefaultSinkCapacity = 256

// Sink accumulates serving telemetry. All methods are safe for concurrent
// use.
type Sink struct {
	mu sync.Mutex

	// ring holds the most recent fault records; seq counts all of them ever
	// recorded, so seq - len(ring) records have been dropped.
	capacity int
	ring     []FaultRecord
	seq      uint64

	sigs map[FaultSignature]*SignatureCount

	requests, faults, errors uint64
	latency                  LatencySummary

	// Admission-screening counters: every inline program screened by the
	// server, how many were rejected pre-execution, and how many verdicts
	// came from the screen cache.
	screened, screenRejected, screenCacheHits uint64

	// aborts counts requests cut short, indexed by exec.Abort; spanStats
	// aggregates per-phase request timings keyed by phase name.
	aborts    [4]uint64
	spanStats map[string]*SpanStat

	// panics counts runs ended by a contained Go panic.
	panics uint64

	// Elision counters: proven guard-free sites bound into runs, and runs
	// whose proofs were invalidated back to checked access.
	elidedSites, elisionInvalidated uint64

	// Temporal-screening counters: verdicts flagged by the temporal effect
	// domain, per-class breakdown, and policy rejections.
	temporalFlagged, temporalRejected uint64
	temporalByClass                   map[string]uint64

	// Adversarial counters: attack probes served, detections, per-scheme
	// scorecards, and the probes/time-to-detect histograms.
	attackProbes, detections uint64
	attackSchemes            map[string]*AttackSchemeStat
	probesToDetect           []uint64
	timeToDetectUS           []uint64

	// tagStats, when set, supplies the hierarchical tag-storage gauges for
	// snapshots. The sink pulls rather than being pushed because resident
	// bytes are a live property of the pool's session spaces, not an event
	// stream.
	tagStats func() TagTableStats
}

// NewSink creates a sink whose fault ring keeps at most capacity records
// (DefaultSinkCapacity when zero).
func NewSink(capacity int) *Sink {
	if capacity <= 0 {
		capacity = DefaultSinkCapacity
	}
	return &Sink{
		capacity:      capacity,
		sigs:          make(map[FaultSignature]*SignatureCount),
		spanStats:     make(map[string]*SpanStat),
		attackSchemes: make(map[string]*AttackSchemeStat),
	}
}

// ObserveAttackProbe records one served attack probe against the named
// scheme: probes is how many forged accesses the attacker issued, detected
// whether the scheme caught it, and d the wall clock from first probe to
// verdict. Detections feed the probes-to-detect and time-to-detect
// histograms; undetected probes only move the totals (and thus the
// per-scheme detection probability down).
func (s *Sink) ObserveAttackProbe(scheme string, probes int, detected bool, d time.Duration) {
	if probes <= 0 {
		probes = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attackProbes += uint64(probes)
	sc, ok := s.attackSchemes[scheme]
	if !ok {
		sc = &AttackSchemeStat{Scheme: scheme}
		s.attackSchemes[scheme] = sc
	}
	sc.Probes += uint64(probes)
	if !detected {
		return
	}
	s.detections++
	sc.Detections++
	if s.probesToDetect == nil {
		s.probesToDetect = make([]uint64, len(probeBucketBounds)+1)
		s.timeToDetectUS = make([]uint64, len(latencyBucketsUS)+1)
	}
	idx := len(probeBucketBounds)
	for i, bound := range probeBucketBounds {
		if probes <= bound {
			idx = i
			break
		}
	}
	s.probesToDetect[idx]++
	us := uint64(d.Nanoseconds()) / 1000
	idx = len(latencyBucketsUS)
	for i, bound := range latencyBucketsUS {
		if us <= bound {
			idx = i
			break
		}
	}
	s.timeToDetectUS[idx]++
}

// ObserveAbort records why a request was cut short; AbortNone is a no-op so
// callers can pass every classification unconditionally.
func (s *Sink) ObserveAbort(a exec.Abort) {
	if a == exec.AbortNone {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(a) < len(s.aborts) {
		s.aborts[a]++
	}
}

// ObserveSpans folds one request's completed lifecycle spans into the
// per-phase aggregates.
func (s *Sink) ObserveSpans(spans []exec.Span) {
	if len(spans) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sp := range spans {
		st, ok := s.spanStats[sp.Phase]
		if !ok {
			st = &SpanStat{Phase: sp.Phase}
			s.spanStats[sp.Phase] = st
		}
		ns := uint64(sp.DurationNS)
		st.Count++
		st.SumNS += ns
		if ns > st.MaxNS {
			st.MaxNS = ns
		}
	}
}

// ObservePanic records a run that a Go panic ended; the request itself is
// recorded separately through ObserveRequest.
func (s *Sink) ObservePanic() {
	s.mu.Lock()
	s.panics++
	s.mu.Unlock()
}

// ObserveRequest records one completed request: its wall-clock duration and
// whether it ended in an MTE fault or a non-fault error.
func (s *Sink) ObserveRequest(d time.Duration, faulted, failed bool) {
	ns := uint64(d.Nanoseconds())
	s.mu.Lock()
	defer s.mu.Unlock()
	s.requests++
	if faulted {
		s.faults++
	}
	if failed {
		s.errors++
	}
	s.latency.Count++
	s.latency.SumNS += ns
	if ns > s.latency.MaxNS {
		s.latency.MaxNS = ns
	}
	if s.latency.BucketsUS == nil {
		s.latency.BucketsUS = make([]uint64, len(latencyBucketsUS)+1)
	}
	us := ns / 1000
	idx := len(latencyBucketsUS) // +inf
	for i, bound := range latencyBucketsUS {
		if us <= bound {
			idx = i
			break
		}
	}
	s.latency.BucketsUS[idx]++
}

// ObserveScreen records one static admission screening of an inline
// program: whether the program was rejected pre-execution and whether the
// verdict was served from the screen cache. Rejected screenings never reach
// ObserveRequest — screening is admission control, not request execution.
func (s *Sink) ObserveScreen(rejected, cacheHit bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.screened++
	if rejected {
		s.screenRejected++
	}
	if cacheHit {
		s.screenCacheHits++
	}
}

// ObserveTemporal records one screened verdict the temporal effect domain
// flagged: classes is the set of exposure classes present (duplicates are
// collapsed by the caller passing distinct classes, or tolerated here by set
// semantics), rejected whether the admission policy 422-rejected the
// program. A verdict with no findings never reaches here.
func (s *Sink) ObserveTemporal(classes []string, rejected bool) {
	if len(classes) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.temporalFlagged++
	if s.temporalByClass == nil {
		s.temporalByClass = make(map[string]uint64)
	}
	seen := make(map[string]bool, len(classes))
	for _, c := range classes {
		if !seen[c] {
			seen[c] = true
			s.temporalByClass[c]++
		}
	}
	if rejected {
		s.temporalRejected++
	}
}

// ObserveElision records one proof-carrying run: how many proven guard-free
// sites its elision mask bound, and whether the proofs were invalidated back
// to checked access (bind-time digest mismatch, remap between prime and arm,
// or a release retiring the facts mid-call). Runs with no mask bound never
// reach here.
func (s *Sink) ObserveElision(sites uint64, invalidated bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.elidedSites += sites
	if invalidated {
		s.elisionInvalidated++
	}
}

// SetTagStatsProvider wires the callback Snapshot uses to populate the
// tag-storage fields — typically the pool's TagStats aggregation. The
// provider is invoked outside the sink lock (it takes the pool's own locks),
// so it must not call back into the sink.
func (s *Sink) SetTagStatsProvider(fn func() TagTableStats) {
	s.mu.Lock()
	s.tagStats = fn
	s.mu.Unlock()
}

// RecordFault folds a fault into the ring and the dedup table, returning the
// stored record (with its sequence number) and whether its signature was new.
func (s *Sink) RecordFault(session, workload string, f *mte.Fault) (FaultRecord, bool) {
	sig := SignatureOf(f, workload)
	// Tag mismatches detected asynchronously carry the Linux SEGV_MTEAERR
	// signal code, matching FormatFault's tombstone rendering.
	kind := f.Kind.String()
	if f.Kind == mte.FaultTagMismatch && f.Async {
		kind = "SEGV_MTEAERR"
	}
	rec := FaultRecord{
		UnixNano:  time.Now().UnixNano(),
		Session:   session,
		Signature: sig,
		Kind:      kind,
		Access:    f.Access.String(),
		Ptr:       f.Ptr.String(),
		Size:      f.Size,
		Report:    FormatFault(f),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	rec.Seq = s.seq
	if len(s.ring) == s.capacity {
		copy(s.ring, s.ring[1:])
		s.ring[len(s.ring)-1] = rec
	} else {
		s.ring = append(s.ring, rec)
	}
	sc, seen := s.sigs[sig]
	if !seen {
		sc = &SignatureCount{Signature: sig, FirstSeq: rec.Seq}
		s.sigs[sig] = sc
	}
	sc.Count++
	sc.LastSeq = rec.Seq
	return rec, !seen
}

// Snapshot returns a consistent copy of all counters, the dedup table
// (most-hit signatures first) and the retained fault records (oldest first).
func (s *Sink) Snapshot() TelemetrySnapshot {
	// Pull the tag-storage gauges before taking the sink lock: the provider
	// acquires the pool's locks, and keeping the two lock domains disjoint
	// rules out ordering inversions.
	s.mu.Lock()
	tagFn := s.tagStats
	s.mu.Unlock()
	var tags TagTableStats
	if tagFn != nil {
		tags = tagFn()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := TelemetrySnapshot{
		TagTableStats:           tags,
		RequestsTotal:           s.requests,
		FaultsTotal:             s.faults,
		ErrorsTotal:             s.errors,
		ScreenedTotal:           s.screened,
		ScreenRejectedTotal:     s.screenRejected,
		ScreenCacheHits:         s.screenCacheHits,
		CanceledTotal:           s.aborts[exec.AbortCanceled],
		DeadlineExceededTotal:   s.aborts[exec.AbortDeadline],
		StepsExceededTotal:      s.aborts[exec.AbortSteps],
		PanicsTotal:             s.panics,
		ElidedSitesTotal:        s.elidedSites,
		ElisionInvalidatedTotal: s.elisionInvalidated,
		TemporalFlaggedTotal:    s.temporalFlagged,
		TemporalWindowRisk:      s.temporalByClass["window-risk"],
		TemporalBlindSpot:       s.temporalByClass["guardedcopy-blindspot"],
		TemporalScanRace:        s.temporalByClass["scan-race"],
		TemporalRejectedTotal:   s.temporalRejected,
		UniqueFaultSignatures:   len(s.sigs),
		DroppedFaultRecords:     s.seq - uint64(len(s.ring)),
		Latency:                 s.latency,
	}
	snap.Latency.BucketsUS = append([]uint64(nil), s.latency.BucketsUS...)
	snap.AttackProbesTotal = s.attackProbes
	snap.DetectionsTotal = s.detections
	snap.ProbesToDetectBuckets = append([]uint64(nil), s.probesToDetect...)
	snap.TimeToDetectBucketsUS = append([]uint64(nil), s.timeToDetectUS...)
	for _, sc := range s.attackSchemes {
		c := *sc
		if c.Probes > 0 {
			c.DetectionProbability = float64(c.Detections) / float64(c.Probes)
		}
		snap.AttackSchemes = append(snap.AttackSchemes, c)
	}
	sort.Slice(snap.AttackSchemes, func(i, j int) bool {
		return snap.AttackSchemes[i].Scheme < snap.AttackSchemes[j].Scheme
	})
	snap.Recent = append([]FaultRecord(nil), s.ring...)
	for _, st := range s.spanStats {
		snap.Spans = append(snap.Spans, *st)
	}
	sort.Slice(snap.Spans, func(i, j int) bool { return snap.Spans[i].Phase < snap.Spans[j].Phase })
	for _, sc := range s.sigs {
		snap.Signatures = append(snap.Signatures, *sc)
	}
	sort.Slice(snap.Signatures, func(i, j int) bool {
		a, b := snap.Signatures[i], snap.Signatures[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		return a.FirstSeq < b.FirstSeq
	})
	return snap
}
