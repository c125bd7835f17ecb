package pool

import (
	"fmt"
	"sync/atomic"
	"time"

	"mte4jni"
	"mte4jni/internal/analysis"
	"mte4jni/internal/exec"
	"mte4jni/internal/interp"
	"mte4jni/internal/jni"
	"mte4jni/internal/mte"
	"mte4jni/internal/redteam"
	"mte4jni/internal/workloads"
)

// Session is one leased runtime. While leased it belongs exclusively to the
// leaseholder: RunProgram/RunWorkload are not themselves goroutine-safe
// (isolation between concurrent requests comes from each request holding a
// different session, not from locking inside one).
type Session struct {
	id      uint64
	scheme  mte4jni.Scheme
	rt      *mte4jni.Runtime
	env     *mte4jni.Env
	created time.Time

	// gen and runs are atomics because Pool.Sessions introspects them while
	// the leaseholder mutates them; leases is guarded by the pool mutex.
	gen    atomic.Int64
	runs   atomic.Uint64
	leases uint64

	// taint latches the first MTE fault of the current lease. Release
	// quarantines any tainted session.
	taint *mte.Fault

	// abort latches why a run in the current lease was cut short (canceled /
	// deadline / step budget). Release uses it to apply the dirty-lease rule:
	// a canceled lease is never blindly re-leased — it goes through
	// GC-verified recycling, or retirement if the interrupted native left
	// JNI acquisitions outstanding.
	abort exec.Abort

	// seedEpoch is the pool reseed epoch this session's tag state was drawn
	// at; when it lags the pool's, the warm-reuse path re-seeds before the
	// lease is handed out. Guarded by the owning shard's mutex (read/written
	// only at lease boundaries).
	seedEpoch uint64

	// home is the shard whose capacity token backs this session. Fixed at
	// creation: warm handoffs keep a session on its shard, so the per-shard
	// lease ledger always balances.
	home *shard

	// runsAtLease snapshots the run counter at lease handout. Written and
	// read only by the leaseholder (lease boundaries synchronize through the
	// shard mutex); Release uses it to detect a no-op lease.
	runsAtLease uint64
}

// beginLease marks the start of a lease, after the session has left the
// shard's warm list (or been created) and belongs exclusively to the caller.
func (s *Session) beginLease() {
	s.runsAtLease = s.runs.Load()
}

// noopLease reports that the current lease has nothing to recycle: it never
// ran a program or workload, left no objects on the heap, holds no JNI
// handouts, and was not aborted. Such a lease can skip the detach/GC/attach
// recycle entirely — admission bookkeeping stays the only cost of an empty
// lease, which is what the pool throughput bench measures.
func (s *Session) noopLease() bool {
	return s.taint == nil &&
		s.abort == exec.AbortNone &&
		s.runs.Load() == s.runsAtLease &&
		s.env.OutstandingAcquisitions() == 0 &&
		s.rt.VM().LiveObjects() == 0
}

// newSession builds a fresh runtime for one pool slot. Each session gets its
// own seed so tag streams are decorrelated across tenants.
func (p *Pool) newSession(id uint64, scheme mte4jni.Scheme, seed int64) (*Session, error) {
	rt, err := mte4jni.New(mte4jni.Config{
		Scheme:               scheme,
		HeapSize:             p.cfg.HeapSize,
		Seed:                 seed,
		TagNeighborExclusion: !p.cfg.DisableNeighborExclusion,
	})
	if err != nil {
		return nil, err
	}
	s := &Session{id: id, scheme: scheme, rt: rt, created: time.Now()}
	if buildHook != nil {
		err = buildHook(rt)
	}
	if err == nil {
		s.env, err = rt.AttachEnv(s.threadName())
	}
	if err != nil {
		_ = rt.VM().Close()
		return nil, err
	}
	return s, nil
}

// buildHook, when set by an in-package test, runs on every freshly built
// runtime before its thread attaches; an error from it fails the session
// build the way an AttachEnv error does. It is the injection point for a
// failed session build.
var buildHook func(*mte4jni.Runtime) error

// Name is the session's stable serving identity.
func (s *Session) Name() string { return fmt.Sprintf("sess-%d", s.id) }

// threadName names the session's JNI thread per generation, so a recycled
// session's crash reports are attributable to the exact lease.
func (s *Session) threadName() string {
	return fmt.Sprintf("sess-%d-g%d", s.id, s.gen.Load())
}

// Scheme returns the session's protection scheme.
func (s *Session) Scheme() mte4jni.Scheme { return s.scheme }

// Env exposes the lease's JNI environment, for tests and advanced callers.
func (s *Session) Env() *mte4jni.Env { return s.env }

// Runtime exposes the underlying runtime, for tests and advanced callers.
func (s *Session) Runtime() *mte4jni.Runtime { return s.rt }

// Generation counts completed recycles.
func (s *Session) Generation() int { return int(s.gen.Load()) }

// TaintFault returns the MTE fault that poisoned the current lease, if any.
func (s *Session) TaintFault() *mte.Fault { return s.taint }

// Abort returns the latched abort kind of the current lease (AbortNone when
// every run completed).
func (s *Session) Abort() exec.Abort { return s.abort }

// RunResult is the outcome of one served run.
type RunResult struct {
	// Ret is the program's return value on a clean completion.
	Ret int64 `json:"ret"`
	// Fault is the MTE fault that ended the run, when one did.
	Fault *mte.Fault `json:"-"`
	// Err is the managed exception or harness error, when one ended the run.
	Err error `json:"-"`
	// Duration is the wall-clock execution time.
	Duration time.Duration `json:"duration_ns"`
	// ElidedSites is the number of statically proven guard-free sites the run
	// was bound with (0 when the run executed fully checked).
	ElidedSites int `json:"-"`
	// ElisionInvalidated reports that a proof-carrying run fell back to
	// checked access — the binding digest mismatched, the heap remapped
	// between prime and arm, or a release retired the facts mid-call.
	ElisionInvalidated bool `json:"-"`
}

// Faulted reports whether the run ended in an MTE fault.
func (r *RunResult) Faulted() bool { return r.Fault != nil }

// RunProgram executes an analysis.Program — the same JSON-loadable artifact
// the lint CLI and the differential oracle consume — inside this session
// under the execution context ec (nil = detached), materialising its native
// summaries into real native bodies. A fault taints the session for
// quarantine at release; a canceled/deadline/steps-exceeded run latches the
// abort kind for the dirty-lease rule.
func (s *Session) RunProgram(ec *exec.Context, p *analysis.Program) *RunResult {
	return s.runProgram(ec, p, nil)
}

// RunProgramElided executes a program with its screening verdict's compiled
// elision mask bound, so the interpreter skips tag checks at statically
// proven sites. The proofs are re-validated against the program at bind time
// (ValidateBinding); a digest mismatch — the native summary changed between
// screening and execution — counts as one invalidated run and falls back to
// the fully checked path. Runtime invalidations (remap between prime and
// arm, release retiring the handout mid-call) are detected by the env and
// surfaced the same way.
func (s *Session) RunProgramElided(ec *exec.Context, p *analysis.Program, el *analysis.Elision) *RunResult {
	if el == nil {
		return s.runProgram(ec, p, nil)
	}
	if err := el.ValidateBinding(p); err != nil {
		res := s.runProgram(ec, p, nil)
		res.ElisionInvalidated = true
		return res
	}
	return s.runProgram(ec, p, el)
}

func (s *Session) runProgram(ec *exec.Context, p *analysis.Program, el *analysis.Elision) *RunResult {
	s.runs.Add(1)
	ip := interp.New(s.env)
	for name, sum := range p.Natives {
		ip.RegisterNative(name, interp.NativeMethod{Kind: sum.Kind, Body: sum.Materialize()})
	}
	res := &RunResult{}
	var invalBefore uint64
	if el != nil {
		ip.BindElision(el.Mask())
		res.ElidedSites = el.Sites()
		invalBefore = s.env.ElisionInvalidations()
	}
	s.env.BindExec(ec)
	defer s.env.BindExec(nil)
	start := time.Now()
	res.Ret, res.Fault, res.Err = ip.InvokeCtx(ec, p.Method)
	res.Duration = time.Since(start)
	if el != nil && s.env.ElisionInvalidations() > invalBefore {
		res.ElisionInvalidated = true
	}
	if res.Fault != nil {
		s.taint = res.Fault
	}
	s.latchAbort(res.Err)
	return res
}

// RunWorkload executes iters iterations of a named GeekBench-style workload
// under the execution context ec (nil = detached): setup outside the timed
// region, then one JNI trampoline call per iteration, then verification. A
// fault taints the session; an aborted run latches its kind. Cancellation is
// checked between iterations (at native entry by the trampoline) and at the
// kernels' own phase boundaries.
func (s *Session) RunWorkload(ec *exec.Context, name string, scale workloads.Scale, iters int) *RunResult {
	s.runs.Add(1)
	if iters <= 0 {
		iters = 1
	}
	res := &RunResult{}
	w, err := workloads.ByName(name, scale)
	if err != nil {
		res.Err = err
		return res
	}
	s.env.BindExec(ec)
	defer s.env.BindExec(nil)
	if err := w.Setup(s.env); err != nil {
		res.Err = fmt.Errorf("pool: %s setup: %w", name, err)
		s.latchAbort(err)
		return res
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		fault, err := s.env.CallNative(name, jni.Regular, w.Run)
		if fault != nil {
			s.taint = fault
			res.Fault = fault
			break
		}
		if err != nil {
			res.Err = err
			break
		}
	}
	res.Duration = time.Since(start)
	if res.Fault == nil && res.Err == nil {
		if err := w.Verify(); err != nil {
			res.Err = fmt.Errorf("pool: %s verify: %w", name, err)
		} else {
			res.Ret = int64(iters)
		}
	}
	s.latchAbort(res.Err)
	return res
}

// latchAbort records the first abort of the current lease.
func (s *Session) latchAbort(err error) {
	if s.abort == exec.AbortNone {
		s.abort = exec.Classify(err)
	}
}

// reseed is the tag-reseed-on-suspicion hook: a fresh tag-RNG stream
// (derived from the pool seed, the session id, and the reseed epoch, so
// reseeds stay reproducible yet unpredictable to a tenant) plus a full
// heap tag reset. Any tag an attacker learned from this session in an
// earlier lease is stale afterwards, and the space-epoch bump inside
// ResetHeapTags invalidates every primed elision proof and TLB tag
// snapshot that assumed the old layout. Called with the lease held
// exclusively, on a freshly recycled (object-free) session.
func (s *Session) reseed(baseSeed int64, epoch uint64) {
	s.rt.VM().ReseedTagRNG(baseSeed + int64(s.id)*1_000_003 + int64(epoch)*7919)
	s.rt.VM().ResetHeapTags()
	s.seedEpoch = epoch
}

// RunAttackProbe serves the canned serving-tier attack probe
// (redteam.ServingProbe): one forged-tag store whose outcome is
// deterministic per scheme. A detected probe taints the session exactly
// like any other MTE fault — quarantine at release — which is what makes
// the probe observable to the escalating defense policy.
func (s *Session) RunAttackProbe(ec *exec.Context) *RunResult {
	s.runs.Add(1)
	s.env.BindExec(ec)
	defer s.env.BindExec(nil)
	res := &RunResult{}
	start := time.Now()
	pr, err := redteam.ServingProbe(s.env)
	res.Duration = time.Since(start)
	res.Err = err
	res.Fault = pr.Fault
	if pr.Fault != nil {
		s.taint = pr.Fault
	}
	if pr.Landed {
		res.Ret = 1
	}
	s.latchAbort(res.Err)
	return res
}

// recycle prepares a healthy session for its next lease: the lease's thread
// is detached (dropping its local-reference roots), the heap is collected,
// and the session is hygiene-checked — objects surviving collection mean the
// lease leaked state into the next tenant, so the session is retired instead
// of reused. A clean session's two heaps are reset to their initial bump
// state, so the next lease allocates from the same low addresses and the
// session's resident data stays bounded by its largest single lease. On
// success a fresh generation's thread is attached.
func (s *Session) recycle() error {
	s.rt.DetachEnv(s.env)
	s.env = nil
	s.rt.GC()
	v := s.rt.VM()
	if n := v.LiveObjects(); n != 0 {
		return fmt.Errorf("pool: session %s leaked %d objects across lease", s.Name(), n)
	}
	v.JavaHeap.Reset()
	v.NativeHeap.Reset()
	s.gen.Add(1)
	env, err := s.rt.AttachEnv(s.threadName())
	if err != nil {
		return fmt.Errorf("pool: reattaching %s: %w", s.threadName(), err)
	}
	s.env = env
	s.abort = exec.AbortNone
	return nil
}

// close tears the session's runtime down, unmapping both heaps. Idempotent
// via vm.Close.
func (s *Session) close() {
	if s.env != nil {
		s.rt.DetachEnv(s.env)
		s.env = nil
	}
	_ = s.rt.VM().Close()
}
