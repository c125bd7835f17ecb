package pool

import (
	"context"
	"errors"
	"time"
)

// Escalating defense policy: the serving tier's response to the redteam
// corpus. A 4-bit tag catches a forged access with probability 15/16 per
// probe, so a brute-forcing tenant announces itself as a fault *rate* no
// honest workload produces. The pool tracks detected faults per tenant and
// escalates through three tiers:
//
//	admit      → faults below DelayThreshold: normal service.
//	delay      → faults ≥ DelayThreshold: every admission pays a fixed
//	             context-aware delay (throttled_total), collapsing the
//	             attacker's probe rate while honest retries stay correct.
//	quarantine → faults ≥ QuarantineThreshold: admissions are refused with
//	             ErrTenantQuarantined before a capacity token is taken —
//	             a quarantined tenant can neither occupy a session slot
//	             nor grow the quarantine ring.
//
// Each tier crossing also bumps the pool's reseed epoch: warm sessions are
// lazily re-seeded (fresh tag-RNG stream, heap tags reset) on their next
// lease, so whatever tag bits a learning attacker banked before tripping
// the threshold are stale by the time it is allowed back in. The policy is
// disabled by default (zero DefenseConfig): the serving counters the smoke
// tests pin down are unchanged unless a deployment opts in.

// ErrTenantQuarantined refuses admission to a tenant the escalation policy
// has quarantined. Servers map it to HTTP 429; no capacity token is
// consumed and nothing is recorded in the quarantine ring.
var ErrTenantQuarantined = errors.New("pool: tenant quarantined by escalating defense")

// DefenseConfig parameterizes the escalation policy. The zero value
// disables it entirely.
type DefenseConfig struct {
	// DelayThreshold is the per-tenant detected-fault count at which
	// admissions start paying Delay. Zero disables the delay tier.
	DelayThreshold int
	// QuarantineThreshold is the per-tenant detected-fault count at which
	// admissions are refused outright. Zero disables the quarantine tier.
	QuarantineThreshold int
	// Delay is the admission penalty in the delay tier (default 1ms when
	// the tier is enabled).
	Delay time.Duration
	// DecayInterval, when positive, lets an escalated tenant earn its way
	// back down the ladder: after each full interval with the policy
	// consulted, the tenant's tier steps down one level (quarantine → delay
	// → admit) and its banked fault count drops to the floor of the new
	// tier, so re-escalation requires fresh faults. Zero (the default)
	// keeps escalation permanent for the pool's lifetime.
	DecayInterval time.Duration
}

// Enabled reports whether any escalation tier is configured.
func (d DefenseConfig) Enabled() bool {
	return d.DelayThreshold > 0 || d.QuarantineThreshold > 0
}

func (d *DefenseConfig) defaults() {
	if d.Enabled() && d.Delay <= 0 {
		d.Delay = time.Millisecond
	}
}

// Tenant escalation tiers, in order.
const (
	tierAdmit = iota
	tierDelay
	tierQuarantine
)

// tenantState is one tenant's standing with the escalation policy. Guarded
// by the pool mutex.
type tenantState struct {
	faults int
	tier   int
	// tierSince anchors the decay clock: the instant the tenant last
	// changed tier (in either direction). Zero until first escalation.
	tierSince time.Time
}

// decayTenant applies time-based tier decay lazily, with the pool mutex
// held: the policy is consulted only at observation and admission time, so
// decay is computed then rather than by a background timer. Each elapsed
// DecayInterval steps the tier down one level and drops the fault count to
// the new tier's floor (delay keeps DelayThreshold banked faults, admit
// resets to zero) — a reformed tenant re-escalates only on fresh faults.
func (p *Pool) decayTenant(ts *tenantState, now time.Time) {
	d := p.cfg.Defense.DecayInterval
	if d <= 0 || ts == nil || ts.tier == tierAdmit || ts.tierSince.IsZero() {
		return
	}
	for ts.tier > tierAdmit && now.Sub(ts.tierSince) >= d {
		ts.tierSince = ts.tierSince.Add(d)
		ts.tier--
		switch ts.tier {
		case tierDelay:
			ts.faults = p.cfg.Defense.DelayThreshold
		case tierAdmit:
			ts.faults = 0
		}
		p.stats.DecaysTotal++
	}
}

// ObserveFault attributes one detected fault to tenant and applies the
// escalation policy, returning true when the observation crossed a tier
// boundary. Tier crossings bump the reseed epoch — every warm session is
// lazily re-seeded on its next lease — and a crossing into quarantine
// additionally books the tenant in tenants_quarantined_total. Tenancy is
// advisory: an empty tenant, or a pool with the policy disabled, is a
// no-op.
func (p *Pool) ObserveFault(tenant string) bool {
	if tenant == "" || !p.cfg.Defense.Enabled() {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	ts := p.tenants[tenant]
	if ts == nil {
		ts = &tenantState{}
		p.tenants[tenant] = ts
	}
	p.decayTenant(ts, p.now())
	ts.faults++
	tier := ts.tier
	if t := p.cfg.Defense.QuarantineThreshold; t > 0 && ts.faults >= t {
		tier = tierQuarantine
	} else if t := p.cfg.Defense.DelayThreshold; t > 0 && ts.faults >= t {
		tier = tierDelay
	}
	if tier == ts.tier {
		return false
	}
	ts.tier = tier
	ts.tierSince = p.now()
	// Suspicion invalidates learned tags: the next lease of every warm
	// session — on every shard, tenant standing being pool-global — re-seeds
	// its tag RNG and resets its heap tags.
	p.reseedEpoch.Add(1)
	p.stats.ReseedsTotal++
	if tier == tierQuarantine {
		p.stats.TenantsQuarantined++
	}
	return true
}

// TenantFaults returns the detected-fault count attributed to tenant.
func (p *Pool) TenantFaults(tenant string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ts := p.tenants[tenant]; ts != nil {
		return ts.faults
	}
	return 0
}

// admitTenant applies the pre-admission side of the policy: quarantined
// tenants are refused, delay-tier tenants pay the admission penalty
// (context-aware, so a canceled client never sleeps the full term). Called
// before any capacity token is taken.
func (p *Pool) admitTenant(ctx context.Context, tenant string) error {
	if tenant == "" || !p.cfg.Defense.Enabled() {
		return nil
	}
	p.mu.Lock()
	tier := tierAdmit
	if ts := p.tenants[tenant]; ts != nil {
		p.decayTenant(ts, p.now())
		tier = ts.tier
	}
	if tier == tierQuarantine {
		p.mu.Unlock()
		return ErrTenantQuarantined
	}
	if tier != tierDelay {
		p.mu.Unlock()
		return nil
	}
	p.stats.ThrottledTotal++
	p.mu.Unlock()
	t := time.NewTimer(p.cfg.Defense.Delay)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
