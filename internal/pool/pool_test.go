package pool

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mte4jni"
	"mte4jni/internal/workloads"
)

func testPool(t *testing.T, cfg Config) *Pool {
	t.Helper()
	if cfg.HeapSize == 0 {
		cfg.HeapSize = 8 << 20
	}
	p := New(cfg)
	t.Cleanup(p.Close)
	return p
}

func TestAcquireReleaseReuse(t *testing.T) {
	p := testPool(t, Config{MaxSessions: 2})
	ctx := context.Background()

	s1, err := p.Acquire(ctx, mte4jni.MTESync)
	if err != nil {
		t.Fatal(err)
	}
	name := s1.Name()
	res := s1.RunProgram(nil, SafeProgram())
	if res.Faulted() || res.Err != nil || res.Ret != 42 {
		t.Fatalf("safe program: ret=%d fault=%v err=%v", res.Ret, res.Fault, res.Err)
	}
	p.Release(s1)

	s2, err := p.Acquire(ctx, mte4jni.MTESync)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Name() != name {
		t.Fatalf("expected warm reuse of %s, got %s", name, s2.Name())
	}
	if s2.Generation() != 1 {
		t.Fatalf("generation after one recycle = %d, want 1", s2.Generation())
	}
	p.Release(s2)

	st := p.Stats()
	if st.Created != 1 || st.Reused != 1 || st.Quarantined != 0 {
		t.Fatalf("stats = %+v, want created=1 reused=1", st)
	}
	if st.Leased != 0 || st.Idle != 1 {
		t.Fatalf("stats = %+v, want leased=0 idle=1", st)
	}
}

func TestSchemesKeptApart(t *testing.T) {
	p := testPool(t, Config{MaxSessions: 4})
	ctx := context.Background()

	sSync, _ := p.Acquire(ctx, mte4jni.MTESync)
	p.Release(sSync)
	sNone, err := p.Acquire(ctx, mte4jni.NoProtection)
	if err != nil {
		t.Fatal(err)
	}
	if sNone.Name() == sSync.Name() {
		t.Fatal("a NoProtection lease was served the warm MTESync session")
	}
	// The unchecked scheme must not fault on the OOB program.
	if res := sNone.RunProgram(nil, OOBProgram()); res.Faulted() || res.Err != nil {
		t.Fatalf("OOB under NoProtection: fault=%v err=%v", res.Fault, res.Err)
	}
	p.Release(sNone)
}

func TestFaultQuarantinesSession(t *testing.T) {
	p := testPool(t, Config{MaxSessions: 1})
	ctx := context.Background()

	s, err := p.Acquire(ctx, mte4jni.MTESync)
	if err != nil {
		t.Fatal(err)
	}
	crashed := s.Name()
	res := s.RunProgram(nil, OOBProgram())
	if !res.Faulted() {
		t.Fatalf("OOB program did not fault under MTE+Sync (ret=%d err=%v)", res.Ret, res.Err)
	}
	if s.TaintFault() == nil {
		t.Fatal("fault did not taint the session")
	}
	p.Release(s)
	if s.rt.VM().Closed() != true {
		t.Fatal("quarantined session's VM was not closed")
	}

	// The slot must be replaceable: the next lease gets a fresh session.
	s2, err := p.Acquire(ctx, mte4jni.MTESync)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Name() == crashed {
		t.Fatal("quarantined session was reused")
	}
	if res := s2.RunProgram(nil, SafeProgram()); res.Faulted() || res.Err != nil {
		t.Fatalf("replacement session unhealthy: fault=%v err=%v", res.Fault, res.Err)
	}
	p.Release(s2)

	st := p.Stats()
	if st.Quarantined != 1 || st.Created != 2 {
		t.Fatalf("stats = %+v, want quarantined=1 created=2", st)
	}
	q := p.Quarantined()
	if len(q) != 1 || q[0].Session != crashed {
		t.Fatalf("quarantine log = %+v", q)
	}
}

// checkLedger requires every shard's lease ledger to be drained, with
// leases[i] leases served and created[i] sessions built on shard i, and the
// pool-wide AssertDrained to agree.
func checkLedger(t *testing.T, p *Pool, leases, created []uint64) {
	t.Helper()
	for i, sh := range p.Stats().Shards {
		if sh.Leased != 0 || sh.Waiters != 0 || sh.Leases != leases[i] || sh.Created != created[i] {
			t.Fatalf("shard %d ledger = %+v, want nothing leased or waiting, %d leases, %d created", i, sh, leases[i], created[i])
		}
	}
	if err := p.AssertDrained(); err != nil {
		t.Fatal(err)
	}
}

func TestLeakedGlobalRetiresSession(t *testing.T) {
	p := testPool(t, Config{MaxSessions: 1})
	ctx := context.Background()

	s, err := p.Acquire(ctx, mte4jni.MTESync)
	if err != nil {
		t.Fatal(err)
	}
	leaky := s.Name()
	obj, err := s.Runtime().VM().NewIntArray(8)
	if err != nil {
		t.Fatal(err)
	}
	s.Runtime().VM().AddGlobalRef(obj)
	p.Release(s)

	st := p.Stats()
	if st.Retired != 1 || st.Quarantined != 0 {
		t.Fatalf("stats = %+v, want retired=1 (hygiene, not quarantine)", st)
	}
	checkLedger(t, p, []uint64{1}, []uint64{1})
	s2, err := p.Acquire(ctx, mte4jni.MTESync)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Name() == leaky {
		t.Fatal("leaky session was reused")
	}

	// The same leak on the rebuilt session, recycled by hand to look at the
	// heap before the retire closes it: the hygiene failure must leave the
	// heap holding the leaked object as it was, never reset, so its block
	// stays live and the next block lands past it.
	v := s2.Runtime().VM()
	leaked, err := v.NewIntArray(8)
	if err != nil {
		t.Fatal(err)
	}
	v.AddGlobalRef(leaked)
	rerr := s2.recycle()
	if rerr == nil {
		t.Fatal("recycle accepted a session with a leaked global")
	}
	if size, ok := v.JavaHeap.SizeOf(leaked.Addr()); !ok || size == 0 {
		t.Fatal("the leaked object's block is no longer live after the failed recycle")
	}
	next, err := v.NewIntArray(8)
	if err != nil {
		t.Fatal(err)
	}
	if next.Addr() <= leaked.Addr() {
		t.Fatalf("next block at %v, at or below the leaked block at %v: the heap was reset", next.Addr(), leaked.Addr())
	}
	p.Retire(s2, rerr.Error())
	if st := p.Stats(); st.Retired != 2 {
		t.Fatalf("stats = %+v, want retired=2", st)
	}
	checkLedger(t, p, []uint64{2}, []uint64{2})
}

// TestFailedBuildReturnsToken fails every other session build through
// buildHook while goroutines lease concurrently across two shards, retiring
// each session they get so that every lease builds. A failed build must
// close the runtime it built and give its token back: afterwards the
// per-shard ledger is exact, the pool drains, and the full capacity can be
// leased at once.
func TestFailedBuildReturnsToken(t *testing.T) {
	errBuild := errors.New("injected build failure")
	var (
		mu     sync.Mutex
		builds int
		failed []*mte4jni.Runtime
	)
	buildHook = func(rt *mte4jni.Runtime) error {
		mu.Lock()
		defer mu.Unlock()
		builds++
		if builds%2 == 1 {
			failed = append(failed, rt)
			return errBuild
		}
		return nil
	}
	// Registered before testPool's cleanup, so it runs after Close.
	t.Cleanup(func() { buildHook = nil })
	const sessions, workers, leasesEach = 4, 8, 10
	p := testPool(t, Config{MaxSessions: sessions, Shards: 2})
	ctx := context.Background()

	var wg sync.WaitGroup
	var ok, refused atomic.Int64
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			scheme := mte4jni.Schemes()[g%4]
			for i := 0; i < leasesEach; i++ {
				s, err := p.AcquireFor(ctx, scheme, fmt.Sprintf("tenant-%d", g))
				if err != nil {
					if !errors.Is(err, errBuild) {
						t.Errorf("acquire: %v, want the injected build failure", err)
						return
					}
					refused.Add(1)
					continue
				}
				if res := s.RunProgram(nil, SafeProgram()); res.Fault != nil || res.Err != nil {
					t.Errorf("safe program under %s: fault=%v err=%v", scheme, res.Fault, res.Err)
				}
				p.Retire(s, "one lease per session")
				ok.Add(1)
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if ok.Load()+refused.Load() != workers*leasesEach || ok.Load() == 0 || refused.Load() == 0 {
		t.Fatalf("%d leases and %d refused builds, want %d in all and some of each", ok.Load(), refused.Load(), workers*leasesEach)
	}
	if int64(len(failed)) != refused.Load() {
		t.Fatalf("%d builds failed, %d acquires refused", len(failed), refused.Load())
	}
	for _, rt := range failed {
		if !rt.VM().Closed() {
			t.Fatal("a failed session build left its runtime open")
		}
	}
	st := p.Stats()
	if st.Created != uint64(ok.Load()) || st.Retired != uint64(ok.Load()) || st.Reused != 0 {
		t.Fatalf("stats = %+v, want %d created and retired, none reused", st, ok.Load())
	}
	leases := make([]uint64, len(st.Shards))
	for i, sh := range st.Shards {
		leases[i] = sh.Leases
	}
	checkLedger(t, p, leases, leases)

	// Every token came back: with builds succeeding, the whole capacity
	// leases at once without waiting.
	buildHook = nil
	var held []*Session
	for i := 0; i < sessions; i++ {
		s, err := p.AcquireFor(ctx, mte4jni.NoProtection, fmt.Sprintf("holder-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, s)
	}
	if st := p.Stats(); st.Leased != sessions || st.Waiters != 0 {
		t.Fatalf("stats with the capacity leased = %+v", st)
	}
	for _, s := range held {
		p.Release(s)
	}
	if err := p.AssertDrained(); err != nil {
		t.Fatal(err)
	}
}

func TestBackpressure(t *testing.T) {
	p := testPool(t, Config{MaxSessions: 1, MaxWaiters: 1})
	ctx := context.Background()

	held, err := p.Acquire(ctx, mte4jni.NoProtection)
	if err != nil {
		t.Fatal(err)
	}

	// Fill the one waiter slot.
	waited := make(chan error, 1)
	go func() {
		s, err := p.Acquire(ctx, mte4jni.NoProtection)
		if err == nil {
			p.Release(s)
		}
		waited <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Waiters == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue full: fail fast.
	if _, err := p.Acquire(ctx, mte4jni.NoProtection); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-capacity acquire returned %v, want ErrOverloaded", err)
	}
	if p.Stats().Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", p.Stats().Rejected)
	}

	// Releasing unblocks the queued waiter.
	p.Release(held)
	if err := <-waited; err != nil {
		t.Fatalf("queued waiter failed: %v", err)
	}
}

func TestAcquireContextCancel(t *testing.T) {
	p := testPool(t, Config{MaxSessions: 1, MaxWaiters: 2})
	held, err := p.Acquire(context.Background(), mte4jni.NoProtection)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release(held)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := p.Acquire(ctx, mte4jni.NoProtection); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled acquire returned %v, want DeadlineExceeded", err)
	}
	if w := p.Stats().Waiters; w != 0 {
		t.Fatalf("waiters = %d after cancellation, want 0", w)
	}
}

func TestPoolClose(t *testing.T) {
	p := New(Config{MaxSessions: 2, HeapSize: 8 << 20})
	ctx := context.Background()

	idleS, _ := p.Acquire(ctx, mte4jni.MTESync)
	p.Release(idleS)
	leased, _ := p.Acquire(ctx, mte4jni.MTEAsync)

	p.Close()
	if !idleS.rt.VM().Closed() {
		t.Fatal("idle session not closed by pool Close")
	}
	if _, err := p.Acquire(ctx, mte4jni.MTESync); !errors.Is(err, ErrClosed) {
		t.Fatalf("acquire after close returned %v, want ErrClosed", err)
	}
	// The leased session is torn down at release time.
	p.Release(leased)
	if !leased.rt.VM().Closed() {
		t.Fatal("leased session not closed on post-Close release")
	}
	if n := len(p.Sessions()); n != 0 {
		t.Fatalf("%d sessions survive Close, want 0", n)
	}
	p.Close() // idempotent
}

func TestRunWorkload(t *testing.T) {
	p := testPool(t, Config{MaxSessions: 1, HeapSize: 32 << 20})
	s, err := p.Acquire(context.Background(), mte4jni.MTEAsync)
	if err != nil {
		t.Fatal(err)
	}
	res := s.RunWorkload(nil, "PDF Renderer", workloads.ScaleSmall, 2)
	if res.Faulted() || res.Err != nil {
		t.Fatalf("workload run: fault=%v err=%v", res.Fault, res.Err)
	}
	if res.Ret != 2 {
		t.Fatalf("ret = %d, want iteration count 2", res.Ret)
	}
	if res := s.RunWorkload(nil, "no-such-workload", workloads.ScaleSmall, 1); res.Err == nil {
		t.Fatal("unknown workload did not error")
	}
	p.Release(s)
	// Workload state must not leak: the session must have been recycled, not
	// retired.
	if st := p.Stats(); st.Retired != 0 || st.Idle != 1 {
		t.Fatalf("stats after workload lease = %+v, want retired=0 idle=1", st)
	}
}

func TestSessionsIntrospection(t *testing.T) {
	p := testPool(t, Config{MaxSessions: 2})
	ctx := context.Background()
	a, _ := p.Acquire(ctx, mte4jni.MTESync)
	b, _ := p.Acquire(ctx, mte4jni.MTEAsync)
	p.Release(b)

	infos := p.Sessions()
	if len(infos) != 2 {
		t.Fatalf("%d sessions listed, want 2", len(infos))
	}
	states := map[string]string{}
	for _, in := range infos {
		states[in.Session] = in.State
	}
	if states[a.Name()] != "leased" || states[b.Name()] != "idle" {
		t.Fatalf("states = %v", states)
	}
	p.Release(a)
}
