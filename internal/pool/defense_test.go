package pool

import (
	"context"
	"errors"
	"testing"
	"time"

	"mte4jni"
)

// An attacker tenant faulting on every request walks the full escalation
// ladder — admit, delay, quarantine — and once quarantined can neither
// consume capacity tokens nor grow the quarantine ring past its bound.
func TestDefenseEscalationLadder(t *testing.T) {
	p := New(Config{
		MaxSessions: 2,
		HeapSize:    1 << 20,
		Defense: DefenseConfig{
			DelayThreshold:      2,
			QuarantineThreshold: 4,
			Delay:               100 * time.Microsecond,
		},
	})
	defer p.Close()
	ctx := context.Background()

	const attempts = 60
	refused := 0
	for i := 0; i < attempts; i++ {
		s, err := p.AcquireFor(ctx, mte4jni.MTESync, "evil")
		if errors.Is(err, ErrTenantQuarantined) {
			refused++
			continue
		}
		if err != nil {
			t.Fatalf("attempt %d: %v", i, err)
		}
		res := s.RunAttackProbe(nil)
		if res.Fault == nil {
			t.Fatalf("attempt %d: attack probe undetected under MTE sync", i)
		}
		p.ObserveFault("evil")
		p.Release(s)
	}

	st := p.Stats()
	// Faults 1..4 run (quarantine trips at the 4th observed fault); every
	// later admission is refused.
	if refused != attempts-4 {
		t.Fatalf("refused = %d, want %d", refused, attempts-4)
	}
	if st.Quarantined != 4 {
		t.Fatalf("session quarantines = %d, want 4 (one per detected probe)", st.Quarantined)
	}
	// Requests 3 and 4 were admitted in the delay tier.
	if st.ThrottledTotal != 2 {
		t.Fatalf("throttled_total = %d, want 2", st.ThrottledTotal)
	}
	if st.TenantsQuarantined != 1 {
		t.Fatalf("tenants_quarantined_total = %d, want 1", st.TenantsQuarantined)
	}
	// Two tier crossings, two reseed-epoch bumps.
	if st.ReseedsTotal != 2 {
		t.Fatalf("reseeds_total = %d, want 2", st.ReseedsTotal)
	}
	if p.TenantFaults("evil") != 4 {
		t.Fatalf("tenant faults = %d, want 4", p.TenantFaults("evil"))
	}
	// The ring stays bounded no matter how long the attack runs.
	if n := len(p.Quarantined()); n > quarantineLog {
		t.Fatalf("quarantine ring grew to %d, bound is %d", n, quarantineLog)
	}
	// No slot leak: a refused admission never took a token, and every
	// quarantined session returned its own. The full capacity must still be
	// acquirable without waiting.
	if st.Leased != 0 {
		t.Fatalf("leased = %d after refusals, want 0", st.Leased)
	}
	short, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	var held []*Session
	for i := 0; i < p.Config().MaxSessions; i++ {
		s, err := p.AcquireFor(short, mte4jni.NoProtection, "honest")
		if err != nil {
			t.Fatalf("honest acquire %d after attack: %v", i, err)
		}
		held = append(held, s)
	}
	for _, s := range held {
		p.Release(s)
	}
}

// The quarantine ring must hold its bound even when session quarantines
// far exceed it (a tenant below the quarantine threshold — or with the
// defense disabled — faulting on every request).
func TestQuarantineRingBoundedUnderSustainedFaults(t *testing.T) {
	p := New(Config{MaxSessions: 2, HeapSize: 1 << 20})
	defer p.Close()
	ctx := context.Background()

	const rounds = quarantineLog * 2
	for i := 0; i < rounds; i++ {
		s, err := p.Acquire(ctx, mte4jni.MTESync)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if res := s.RunAttackProbe(nil); res.Fault == nil {
			t.Fatalf("round %d: probe undetected", i)
		}
		p.Release(s)
	}
	if st := p.Stats(); st.Quarantined != rounds {
		t.Fatalf("quarantined = %d, want %d", st.Quarantined, rounds)
	}
	if n := len(p.Quarantined()); n != quarantineLog {
		t.Fatalf("ring holds %d records, want exactly the bound %d", n, quarantineLog)
	}
}

// A quarantined tenant's refusal must not starve other tenants: the policy
// is per-tenant, and refusals happen before any token is taken.
func TestDefenseRefusalIsPerTenant(t *testing.T) {
	p := New(Config{
		MaxSessions: 1,
		HeapSize:    1 << 20,
		Defense:     DefenseConfig{QuarantineThreshold: 1},
	})
	defer p.Close()
	ctx := context.Background()

	s, err := p.AcquireFor(ctx, mte4jni.MTESync, "evil")
	if err != nil {
		t.Fatal(err)
	}
	if res := s.RunAttackProbe(nil); res.Fault == nil {
		t.Fatal("probe undetected")
	}
	p.ObserveFault("evil")
	p.Release(s)

	if _, err := p.AcquireFor(ctx, mte4jni.MTESync, "evil"); !errors.Is(err, ErrTenantQuarantined) {
		t.Fatalf("evil tenant admission: %v, want ErrTenantQuarantined", err)
	}
	s, err = p.AcquireFor(ctx, mte4jni.MTESync, "honest")
	if err != nil {
		t.Fatalf("honest tenant blocked by evil tenant's quarantine: %v", err)
	}
	p.Release(s)
}

// Tag-reseed-on-suspicion: a warm session parked before a tier crossing is
// re-seeded on its next lease, stays fully serviceable, and passes the
// GC-verified recycle afterwards.
func TestReseedOnSuspicionKeepsSessionsServiceable(t *testing.T) {
	p := New(Config{
		MaxSessions: 1,
		HeapSize:    1 << 20,
		Defense:     DefenseConfig{DelayThreshold: 1, QuarantineThreshold: 100},
	})
	defer p.Close()
	ctx := context.Background()

	// Park one warm session at epoch 0.
	s, err := p.AcquireFor(ctx, mte4jni.MTESync, "good")
	if err != nil {
		t.Fatal(err)
	}
	epochBefore := s.Runtime().VM().Space.Epoch()
	p.Release(s)

	// Another tenant trips the delay tier: reseed epoch bumps.
	p.ObserveFault("evil")
	if st := p.Stats(); st.ReseedsTotal != 1 {
		t.Fatalf("reseeds_total = %d, want 1", st.ReseedsTotal)
	}

	// The warm session re-seeds at its next lease.
	s, err = p.AcquireFor(ctx, mte4jni.MTESync, "good")
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.SessionsReseeded != 1 {
		t.Fatalf("sessions_reseeded_total = %d, want 1", st.SessionsReseeded)
	}
	if ep := s.Runtime().VM().Space.Epoch(); ep == epochBefore {
		t.Fatal("reseed did not bump the space epoch — learned TLB/elision state would stay valid")
	}
	// The re-seeded session still serves real work and recycles cleanly.
	res := s.RunWorkload(nil, "PDF Renderer", 0, 1)
	if res.Fault != nil || res.Err != nil {
		t.Fatalf("workload on reseeded session: fault=%v err=%v", res.Fault, res.Err)
	}
	p.Release(s)
	st := p.Stats()
	if st.Retired != 0 || st.Quarantined != 0 {
		t.Fatalf("reseeded session failed recycle: %+v", st)
	}
	if st.Idle != 1 {
		t.Fatalf("idle = %d, want the reseeded session parked warm", st.Idle)
	}
	// An unchanged epoch does not reseed again.
	s, err = p.AcquireFor(ctx, mte4jni.MTESync, "good")
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.SessionsReseeded != 1 {
		t.Fatalf("sessions_reseeded_total = %d after stable epoch, want still 1", st.SessionsReseeded)
	}
	p.Release(s)
}

// A reseed invalidates any elision proofs primed against the old tag
// layout: the space-epoch bump makes ArmElision refuse and books the
// invalidation the serving tier exports as elision_invalidated_total.
func TestReseedInvalidatesPrimedElision(t *testing.T) {
	p := New(Config{MaxSessions: 1, HeapSize: 1 << 20})
	defer p.Close()
	s, err := p.Acquire(context.Background(), mte4jni.MTESync)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release(s)

	env := s.Env()
	before := env.ElisionInvalidations()
	env.PrimeElision()
	s.Runtime().VM().ResetHeapTags()
	if env.ArmElision() {
		t.Fatal("elision armed across a tag reseed")
	}
	env.ClearElision()
	if got := env.ElisionInvalidations(); got != before+1 {
		t.Fatalf("elision invalidations = %d, want %d", got, before+1)
	}
}

// A canceled client in the delay tier gets its context error instead of
// serving out the penalty.
func TestDefenseDelayRespectsContext(t *testing.T) {
	p := New(Config{
		MaxSessions: 1,
		HeapSize:    1 << 20,
		Defense:     DefenseConfig{DelayThreshold: 1, QuarantineThreshold: 100, Delay: time.Hour},
	})
	defer p.Close()
	p.ObserveFault("evil")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.AcquireFor(ctx, mte4jni.MTESync, "evil"); !errors.Is(err, context.Canceled) {
		t.Fatalf("delayed admission with canceled context: %v, want context.Canceled", err)
	}
}

// Time-based tier decay: a quarantined tenant steps back down the ladder
// after each DecayInterval — quarantine to delay to admit — with the banked
// fault count dropped to the new tier's floor so re-escalation needs fresh
// faults. The policy clock is stepped by hand, so a stalled host cannot
// turn one elapsed interval into two.
func TestDefenseTierDecay(t *testing.T) {
	const interval = 20 * time.Millisecond
	p := New(Config{
		MaxSessions: 1,
		HeapSize:    1 << 20,
		Defense: DefenseConfig{
			DelayThreshold:      2,
			QuarantineThreshold: 4,
			Delay:               100 * time.Microsecond,
			DecayInterval:       interval,
		},
	})
	defer p.Close()
	ctx := context.Background()
	clock := time.Unix(1_000_000, 0)
	p.now = func() time.Time { return clock }

	// Walk the tenant into quarantine.
	for i := 0; i < 4; i++ {
		p.ObserveFault("evil")
	}
	if _, err := p.AcquireFor(ctx, mte4jni.MTESync, "evil"); !errors.Is(err, ErrTenantQuarantined) {
		t.Fatalf("freshly quarantined tenant admission: %v, want ErrTenantQuarantined", err)
	}
	if st := p.Stats(); st.DecaysTotal != 0 {
		t.Fatalf("defense_decays_total = %d before any interval elapsed, want 0", st.DecaysTotal)
	}

	// One interval later the tenant is back in the delay tier: admitted, but
	// paying the penalty, with faults reset to the delay floor.
	clock = clock.Add(interval + interval/2)
	throttledBefore := p.Stats().ThrottledTotal
	s, err := p.AcquireFor(ctx, mte4jni.MTESync, "evil")
	if err != nil {
		t.Fatalf("decayed tenant admission: %v, want delay-tier admit", err)
	}
	p.Release(s)
	st := p.Stats()
	if st.DecaysTotal != 1 {
		t.Fatalf("defense_decays_total = %d after one interval, want 1", st.DecaysTotal)
	}
	if st.ThrottledTotal != throttledBefore+1 {
		t.Fatalf("throttled_total = %d, want %d (delay-tier admission)", st.ThrottledTotal, throttledBefore+1)
	}
	if f := p.TenantFaults("evil"); f != 2 {
		t.Fatalf("tenant faults after decay = %d, want delay floor 2", f)
	}

	// Another interval: fully reformed — admitted without throttling, fault
	// count zero.
	clock = clock.Add(interval)
	s, err = p.AcquireFor(ctx, mte4jni.MTESync, "evil")
	if err != nil {
		t.Fatalf("reformed tenant admission: %v", err)
	}
	p.Release(s)
	st = p.Stats()
	if st.DecaysTotal != 2 {
		t.Fatalf("defense_decays_total = %d after two intervals, want 2", st.DecaysTotal)
	}
	if st.ThrottledTotal != throttledBefore+1 {
		t.Fatalf("throttled_total = %d, want unchanged %d (admit tier pays no delay)", st.ThrottledTotal, throttledBefore+1)
	}
	if f := p.TenantFaults("evil"); f != 0 {
		t.Fatalf("tenant faults after full decay = %d, want 0", f)
	}

	// Fresh faults re-escalate from the floor: two more trip quarantine
	// again only after crossing the full distance from zero.
	for i := 0; i < 4; i++ {
		p.ObserveFault("evil")
	}
	if _, err := p.AcquireFor(ctx, mte4jni.MTESync, "evil"); !errors.Is(err, ErrTenantQuarantined) {
		t.Fatalf("re-escalated tenant admission: %v, want ErrTenantQuarantined", err)
	}
}
