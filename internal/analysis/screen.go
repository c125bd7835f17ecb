package analysis

import (
	"container/list"
	"crypto/sha256"
	"errors"
	"sync"
)

// Admission screening: the serving layer's pre-execution gate. Screen runs
// the abstract interpreter over an inline program and condenses the result
// into a ScreenVerdict — provably-faulting programs carry the rule, pc and
// pointer-provenance chain that justify rejecting them before they ever
// touch a pooled session. ScreenCache memoizes verdicts by program hash so
// resubmissions of the same (byte-identical) program cost one map lookup.

// ScreenVerdict is the static admission decision for one program, and the
// body of the server's 422 rejection.
type ScreenVerdict struct {
	// Verdict is the whole-program claim.
	Verdict Verdict `json:"verdict"`
	// Rule is the deciding rule for a rejection (empty for safe/unknown
	// verdicts — managed throws and aborts are not faults and never reject).
	Rule string `json:"rule,omitempty"`
	// PC is the faulting instruction index (-1 when not anchored).
	PC int `json:"pc"`
	// Native names the faulting native method.
	Native string `json:"native,omitempty"`
	// Reason is the one-clause justification.
	Reason string `json:"reason"`
	// Provenance traces the faulting pointer from allocation to dereference.
	Provenance ProvChain `json:"provenance,omitempty"`
	// Diagnostics are the analyzer's rendered findings.
	Diagnostics []string `json:"diagnostics,omitempty"`
	// Cached marks a verdict served from the screen cache.
	Cached bool `json:"cached,omitempty"`
	// Temporal lists the call sites the temporal effect domain classified
	// as exposed, with their alloc → acquire → interfering-write →
	// late-check chains; the server's -temporal-policy decides what to do
	// with them per requested scheme.
	Temporal []TemporalFinding `json:"temporal,omitempty"`
	// Elision is the compiled proof-carrying elision mask, attached only to
	// safe verdicts — the execution side binds it to skip proven guards.
	// Never serialized: proofs ride the admission path, not the wire. The
	// Elision is immutable after compilation, so cache copies share it.
	Elision *Elision `json:"-"`
	// Program is the parsed program the verdict was computed from, set by
	// ScreenCache so the caller runs what was screened without parsing the
	// bytes again. Never serialized, never mutated after parsing, so cache
	// copies share it.
	Program *Program `json:"-"`
}

// Rejected reports whether the verdict rejects the program at admission.
func (v *ScreenVerdict) Rejected() bool { return v.Verdict == VerdictFault }

// Screen statically screens a program for admission. The verdict is
// VerdictFault only when the analyzer proves every execution raises an MTE
// tag-check fault (see analyzeMethod); anything weaker — including programs
// that merely *may* fault — is admitted and left to the runtime schemes.
func Screen(p *Program) *ScreenVerdict {
	res := p.Analyze("")
	v := &ScreenVerdict{Verdict: res.Verdict, PC: -1, Temporal: res.Temporal}
	for _, d := range res.Diags {
		if d.Sev != SevInfo {
			v.Diagnostics = append(v.Diagnostics, d.String())
		}
	}
	switch res.Verdict {
	case VerdictFault:
		v.Rule = RuleNativeFault
		v.Reason = "every execution raises an MTE tag-check fault"
		if res.FaultSite != nil {
			v.PC = res.FaultSite.PC
			v.Native = res.FaultSite.Name
			v.Reason = res.FaultSite.Reason
		}
		v.Provenance = res.Provenance
	case VerdictSafe:
		v.Reason = "no execution can raise an MTE tag-check fault"
		v.Elision = res.Elision
	default:
		v.Reason = unknownReason(res)
	}
	return v
}

// unknownReason picks the most useful explanation for an unknown verdict:
// the first non-safe call site, else the first warning, else a generic note.
func unknownReason(res *MethodResult) string {
	for _, s := range res.CallSites {
		if s.Verdict != VerdictSafe {
			return s.Reason
		}
	}
	for _, d := range res.Diags {
		if d.Sev == SevWarning {
			return d.Message
		}
	}
	return "analyzer proves nothing either way"
}

// DefaultScreenCacheSize bounds the verdict cache when NewScreenCache is
// given zero.
const DefaultScreenCacheSize = 1024

// ScreenCache is a concurrency-safe LRU of screen verdicts keyed by program
// hash. The key also covers the temporal admission policy the cache serves
// under (SetTemporalPolicy): a verdict computed under one policy is never
// served under another, even across a runtime policy flip. Each distinct
// key is screened once: callers that miss while the first screen of their
// key is still running wait for it instead of screening again.
type ScreenCache struct {
	mu       sync.Mutex
	max      int
	policy   TemporalPolicy
	order    *list.List // front = most recently used
	entries  map[[sha256.Size]byte]*list.Element
	inflight map[[sha256.Size]byte]*screenCall
	hits     uint64
	misses   uint64
}

type screenEntry struct {
	key     [sha256.Size]byte
	verdict *ScreenVerdict
}

// screenCall is one in-flight screen; verdict and err are set before done
// is closed.
type screenCall struct {
	done    chan struct{}
	verdict *ScreenVerdict
	err     error
}

// errScreenPanicked is what callers waiting on a screen that panicked get.
var errScreenPanicked = errors.New("analysis: screen panicked")

// NewScreenCache creates a cache holding at most max verdicts
// (DefaultScreenCacheSize when max <= 0).
func NewScreenCache(max int) *ScreenCache {
	if max <= 0 {
		max = DefaultScreenCacheSize
	}
	return &ScreenCache{
		max:      max,
		policy:   TemporalReject,
		order:    list.New(),
		entries:  make(map[[sha256.Size]byte]*list.Element),
		inflight: make(map[[sha256.Size]byte]*screenCall),
	}
}

// SetTemporalPolicy records the admission policy this cache's verdicts are
// served under. The policy is part of the cache key, so flipping it makes
// every earlier entry unreachable rather than silently reused.
func (c *ScreenCache) SetTemporalPolicy(p TemporalPolicy) {
	c.mu.Lock()
	c.policy = p
	c.mu.Unlock()
}

// policyKeyTags pre-renders each known policy's cache-key suffix so the hot
// lookup path feeds the hash without converting strings per request.
var policyKeyTags = map[TemporalPolicy][]byte{
	TemporalReject:    []byte("\x00temporal-policy:" + TemporalReject),
	TemporalForceSync: []byte("\x00temporal-policy:" + TemporalForceSync),
	TemporalLog:       []byte("\x00temporal-policy:" + TemporalLog),
}

// key hashes the raw program bytes together with the temporal policy tag.
func (c *ScreenCache) key(raw []byte, policy TemporalPolicy) [sha256.Size]byte {
	h := sha256.New()
	h.Write(raw)
	if tag, ok := policyKeyTags[policy]; ok {
		h.Write(tag)
	} else {
		h.Write([]byte("\x00temporal-policy:"))
		h.Write([]byte(policy))
	}
	var k [sha256.Size]byte
	h.Sum(k[:0])
	return k
}

// ScreenBytes screens a raw JSON program, serving the verdict from cache
// when the same bytes were screened before or are being screened now. The
// second result reports a cache hit (the returned verdict then has Cached
// set); a caller that waited on another's screen counts as a hit. Parse
// failures reach every waiting caller as errors and are never cached.
func (c *ScreenCache) ScreenBytes(raw []byte) (*ScreenVerdict, bool, error) {
	c.mu.Lock()
	key := c.key(raw, c.policy)
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		v := *el.Value.(*screenEntry).verdict
		c.mu.Unlock()
		v.Cached = true
		return &v, true, nil
	}
	if call, ok := c.inflight[key]; ok {
		c.hits++
		c.mu.Unlock()
		<-call.done
		if call.err != nil {
			return nil, false, call.err
		}
		v := *call.verdict
		v.Cached = true
		return &v, true, nil
	}
	c.misses++
	call := &screenCall{done: make(chan struct{}), err: errScreenPanicked}
	c.inflight[key] = call
	c.mu.Unlock()
	defer c.settle(key, call)

	p, err := ParseProgram(raw)
	if err == nil {
		call.verdict = Screen(p)
		call.verdict.Program = p
	}
	call.err = err
	return call.verdict, false, err
}

// settle publishes a finished screen: it caches the verdict (never an
// error) and wakes every caller waiting on the same key. It runs deferred,
// so a screen that panics still releases its waiters.
func (c *ScreenCache) settle(key [sha256.Size]byte, call *screenCall) {
	c.mu.Lock()
	delete(c.inflight, key)
	if call.err == nil {
		c.entries[key] = c.order.PushFront(&screenEntry{key: key, verdict: call.verdict})
		if c.order.Len() > c.max {
			oldest := c.order.Back()
			c.order.Remove(oldest)
			delete(c.entries, oldest.Value.(*screenEntry).key)
		}
	}
	c.mu.Unlock()
	close(call.done)
}

// Len returns the number of cached verdicts.
func (c *ScreenCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats returns the hit/miss counters.
func (c *ScreenCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
