package analysis

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mte4jni/internal/interp"
)

// screenProg builds a minimal alloc → call → return program around one
// native summary.
func screenProg(elems int64, sum NativeSummary) *Program {
	return &Program{
		Method: &interp.Method{
			Name: "screen", MaxLocals: 1, MaxRefs: 1,
			NativeNames: []string{"touch"},
			Code: []interp.Inst{
				{Op: interp.OpConst, A: elems},
				{Op: interp.OpNewArray, A: 0},
				{Op: interp.OpCallNative, A: 0, B: 0},
				{Op: interp.OpConst, A: 0},
				{Op: interp.OpReturn},
			},
		},
		Natives: map[string]NativeSummary{"touch": sum},
	}
}

func TestScreenRejectsSeededBadPrograms(t *testing.T) {
	files, err := filepath.Glob("testdata/bad/*.json")
	if err != nil || len(files) < 3 {
		t.Fatalf("glob: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		p, err := LoadProgram(f)
		if err != nil {
			t.Fatal(err)
		}
		v := Screen(p)
		if !v.Rejected() {
			t.Errorf("%s: not rejected: %+v", f, v)
			continue
		}
		if v.Rule != RuleNativeFault || v.PC < 0 || v.Native == "" || v.Reason == "" {
			t.Errorf("%s: incomplete verdict: %+v", f, v)
		}
		if len(v.Provenance) < 3 {
			t.Errorf("%s: provenance chain too short: %v", f, v.Provenance)
		}
	}
}

func TestScreenAdmitsExamples(t *testing.T) {
	files, err := filepath.Glob("../../examples/lint/*.json")
	if err != nil || len(files) < 3 {
		t.Fatalf("glob: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		p, err := LoadProgram(f)
		if err != nil {
			t.Fatal(err)
		}
		v := Screen(p)
		if v.Rejected() {
			t.Errorf("%s: rejected: %+v", f, v)
		}
		if v.Verdict != VerdictSafe {
			t.Errorf("%s: verdict = %v, want safe", f, v.Verdict)
		}
	}
}

// TestScreenProvenanceChainShape: the chain must start at the allocation,
// end in the dereference, and carry the summary-specific steps in between.
func TestScreenProvenanceChainShape(t *testing.T) {
	cases := []struct {
		name string
		sum  NativeSummary
		want []ProvKind
	}{
		{
			name: "oob-write",
			sum:  NativeSummary{MinOff: 0, MaxOff: 84, Write: true},
			want: []ProvKind{ProvAlloc, ProvHandout, ProvDerive, ProvDeref},
		},
		{
			name: "use-after-release",
			sum:  NativeSummary{MinOff: 0, MaxOff: 7, UseAfterRelease: true},
			want: []ProvKind{ProvAlloc, ProvHandout, ProvDerive, ProvRelease, ProvDeref},
		},
		{
			name: "forged-tag",
			sum:  NativeSummary{MinOff: 0, MaxOff: 15, ForgeTag: true},
			want: []ProvKind{ProvAlloc, ProvHandout, ProvDerive, ProvForge, ProvDeref},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := Screen(screenProg(18, tc.sum))
			if !v.Rejected() {
				t.Fatalf("not rejected: %+v", v)
			}
			var kinds []ProvKind
			for _, s := range v.Provenance {
				kinds = append(kinds, s.Kind)
			}
			if fmt.Sprint(kinds) != fmt.Sprint(tc.want) {
				t.Fatalf("chain = %v, want %v", kinds, tc.want)
			}
			if v.Provenance[0].PC != 1 {
				t.Errorf("alloc step pc = %d, want 1 (the newarray)", v.Provenance[0].PC)
			}
			last := v.Provenance[len(v.Provenance)-1]
			if last.PC != 2 || last.Native != "touch" {
				t.Errorf("deref step = %+v, want pc 2 native touch", last)
			}
		})
	}
}

// TestScreenInterproceduralHandouts: when the same reference is handed to an
// earlier (safe) native before the faulting one, the chain records the prior
// hand-out — the cross-summary part of the provenance domain.
func TestScreenInterproceduralHandouts(t *testing.T) {
	p := &Program{
		Method: &interp.Method{
			Name: "multi", MaxLocals: 1, MaxRefs: 1,
			NativeNames: []string{"reader", "stale"},
			Code: []interp.Inst{
				{Op: interp.OpConst, A: 18},
				{Op: interp.OpNewArray, A: 0},
				{Op: interp.OpCallNative, A: 0, B: 0}, // safe read
				{Op: interp.OpCallNative, A: 1, B: 0}, // use-after-release
				{Op: interp.OpConst, A: 0},
				{Op: interp.OpReturn},
			},
		},
		Natives: map[string]NativeSummary{
			"reader": {MinOff: 0, MaxOff: 7},
			"stale":  {MinOff: 0, MaxOff: 7, UseAfterRelease: true},
		},
	}
	v := Screen(p)
	if !v.Rejected() {
		t.Fatalf("not rejected: %+v", v)
	}
	var priors int
	for _, s := range v.Provenance {
		if s.Kind == ProvHandout && s.Native == "reader" && s.PC == 2 {
			priors++
		}
	}
	if priors != 1 {
		t.Fatalf("prior hand-out to reader not in chain: %v", v.Provenance)
	}
	if v.PC != 3 || v.Native != "stale" {
		t.Fatalf("fault site = pc %d native %q, want pc 3 stale", v.PC, v.Native)
	}
}

// TestScreenMergedAllocSite: two newarray sites merging into one slot lose
// the unique allocation pc; the chain must degrade gracefully, not lie.
func TestScreenMergedAllocSite(t *testing.T) {
	p := &Program{
		Method: &interp.Method{
			Name: "merged", MaxLocals: 1, MaxRefs: 1,
			NativeNames: []string{"stale"},
			Code: []interp.Inst{
				{Op: interp.OpLoad, A: 0},
				{Op: interp.OpJmpIfZero, A: 4},
				{Op: interp.OpConst, A: 18},
				{Op: interp.OpJmp, A: 5},
				{Op: interp.OpConst, A: 18},
				{Op: interp.OpNewArray, A: 0}, // single site: allocPC survives
				{Op: interp.OpCallNative, A: 0, B: 0},
				{Op: interp.OpConst, A: 0},
				{Op: interp.OpReturn},
			},
		},
		Natives: map[string]NativeSummary{"stale": {MinOff: 0, MaxOff: 7, UseAfterRelease: true}},
	}
	v := Screen(p)
	if !v.Rejected() {
		t.Fatalf("not rejected: %+v", v)
	}
	if v.Provenance[0].Kind != ProvAlloc || v.Provenance[0].PC != 5 {
		t.Fatalf("alloc step = %+v, want pc 5", v.Provenance[0])
	}

	// Now genuinely merge two allocation sites.
	p.Method.Code = []interp.Inst{
		{Op: interp.OpLoad, A: 0},
		{Op: interp.OpJmpIfZero, A: 5},
		{Op: interp.OpConst, A: 18},
		{Op: interp.OpNewArray, A: 0},
		{Op: interp.OpJmp, A: 7},
		{Op: interp.OpConst, A: 18},
		{Op: interp.OpNewArray, A: 0},
		{Op: interp.OpCallNative, A: 0, B: 0},
		{Op: interp.OpConst, A: 0},
		{Op: interp.OpReturn},
	}
	v = Screen(p)
	if !v.Rejected() {
		t.Fatalf("merged: not rejected: %+v", v)
	}
	if v.Provenance[0].Kind != ProvAlloc || v.Provenance[0].PC != -1 {
		t.Fatalf("merged alloc step = %+v, want pc -1", v.Provenance[0])
	}
}

func TestScreenVerdictJSONRoundTrip(t *testing.T) {
	raw, err := os.ReadFile("testdata/bad/use_after_release.json")
	if err != nil {
		t.Fatal(err)
	}
	p, err := ParseProgram(raw)
	if err != nil {
		t.Fatal(err)
	}
	v := Screen(p)
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"verdict":"provably-faulting"`) {
		t.Fatalf("verdict not marshalled by name: %s", data)
	}
	var back ScreenVerdict
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Verdict != VerdictFault || back.PC != v.PC || len(back.Provenance) != len(v.Provenance) {
		t.Fatalf("round trip mangled verdict: %+v vs %+v", back, v)
	}
}

func TestScreenCacheHitAndLRU(t *testing.T) {
	c := NewScreenCache(2)
	bad, err := os.ReadFile("testdata/bad/oob_write.json")
	if err != nil {
		t.Fatal(err)
	}
	v1, hit, err := c.ScreenBytes(bad)
	if err != nil || hit {
		t.Fatalf("first screen: hit=%v err=%v", hit, err)
	}
	if !v1.Rejected() || v1.Cached {
		t.Fatalf("first verdict: %+v", v1)
	}
	v2, hit, err := c.ScreenBytes(bad)
	if err != nil || !hit {
		t.Fatalf("second screen: hit=%v err=%v", hit, err)
	}
	if !v2.Rejected() || !v2.Cached {
		t.Fatalf("cached verdict: %+v", v2)
	}
	if v1.Cached {
		t.Fatal("cache hit mutated the stored verdict")
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats = %d/%d, want 1/1", hits, misses)
	}

	// Fill past capacity: the oldest key must fall out.
	for i := 0; i < 2; i++ {
		p := screenProg(int64(8+i), NativeSummary{MinOff: 0, MaxOff: 7})
		raw, err := MarshalProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, hit, err := c.ScreenBytes(raw); err != nil || hit {
			t.Fatalf("fill %d: hit=%v err=%v", i, hit, err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if _, hit, err := c.ScreenBytes(bad); err != nil || hit {
		t.Fatalf("evicted key still hit=%v err=%v", hit, err)
	}
}

func TestScreenCacheParseErrorNotCached(t *testing.T) {
	c := NewScreenCache(0)
	if _, _, err := c.ScreenBytes([]byte(`{"method":`)); err == nil {
		t.Fatal("no error for malformed program")
	}
	if c.Len() != 0 {
		t.Fatalf("parse failure cached: len=%d", c.Len())
	}
}

// TestScreenCacheConcurrentChurn drives a deliberately undersized cache with
// many distinct programs from many goroutines at once, so hits, misses, and
// evictions interleave freely (the -race run is the point). Every fetch —
// cold, cached, or re-screened after eviction — must return a structurally
// complete verdict with its provenance chain intact.
func TestScreenCacheConcurrentChurn(t *testing.T) {
	const progs, workers, rounds = 24, 8, 40
	c := NewScreenCache(4)
	raws := make([][]byte, progs)
	for i := range raws {
		// Distinct lengths give distinct bytes, hence distinct cache keys;
		// every one is a provable OOB write (one granule past the payload,
		// inside the neighbour-exclusion window) carrying a derive step.
		elems := int64(8 + i)
		raw, err := MarshalProgram(screenProg(elems, NativeSummary{MinOff: 0, MaxOff: elems*4 + 12, Write: true}))
		if err != nil {
			t.Fatal(err)
		}
		raws[i] = raw
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				v, _, err := c.ScreenBytes(raws[(w*rounds+j)%progs])
				if err != nil || !v.Rejected() {
					t.Errorf("worker %d: %+v err=%v", w, v, err)
					return
				}
				if len(v.Provenance) < 3 || v.Provenance[len(v.Provenance)-1].Kind != ProvDeref {
					t.Errorf("worker %d: provenance chain damaged under churn: %v", w, v.Provenance)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 4 {
		t.Fatalf("cache grew past its bound under churn: len=%d", c.Len())
	}
	if hits, misses := c.Stats(); hits+misses != workers*rounds {
		t.Fatalf("hits+misses = %d, want %d", hits+misses, workers*rounds)
	}
}

// TestScreenCacheCopyOnHitIsolation: a cache hit hands out a copy, so a
// caller scribbling on its verdict cannot poison later hits — while the
// compiled Elision (immutable by contract) is shared across copies rather
// than recompiled.
func TestScreenCacheCopyOnHitIsolation(t *testing.T) {
	c := NewScreenCache(0)
	raw, err := MarshalProgram(screenProg(16, NativeSummary{MinOff: 0, MaxOff: 63}))
	if err != nil {
		t.Fatal(err)
	}
	v1, hit, err := c.ScreenBytes(raw)
	if err != nil || hit || v1.Verdict != VerdictSafe || v1.Elision == nil {
		t.Fatalf("cold screen: hit=%v err=%v %+v", hit, err, v1)
	}
	v2, hit, err := c.ScreenBytes(raw)
	if err != nil || !hit {
		t.Fatalf("warm screen: hit=%v err=%v", hit, err)
	}
	if v2.Elision != v1.Elision {
		t.Fatal("cache hit recompiled the elision instead of sharing the immutable proofs")
	}
	// Scribble on the hit's copy; the cache's stored verdict must not move.
	v2.Verdict, v2.Reason, v2.PC = VerdictFault, "scribbled", 99
	v3, hit, err := c.ScreenBytes(raw)
	if err != nil || !hit {
		t.Fatalf("third screen: hit=%v err=%v", hit, err)
	}
	if v3.Verdict != VerdictSafe || v3.Reason != v1.Reason || v3.PC != v1.PC {
		t.Fatalf("caller mutation leaked into the cache: %+v", v3)
	}
}

// TestScreenProvenanceDerivedOffsets: the derive step must carry the exact
// byte-offset window the native's pointer arithmetic reaches from the
// handed-out base, and a zero-offset dereference (no arithmetic at all)
// must omit the derive step entirely.
func TestScreenProvenanceDerivedOffsets(t *testing.T) {
	v := Screen(screenProg(18, NativeSummary{MinOff: 4, MaxOff: 84, Write: true}))
	if !v.Rejected() {
		t.Fatalf("not rejected: %+v", v)
	}
	var derive *ProvStep
	for i := range v.Provenance {
		if v.Provenance[i].Kind == ProvDerive {
			derive = &v.Provenance[i]
		}
	}
	if derive == nil {
		t.Fatalf("no derive step in %v", v.Provenance)
	}
	if derive.Native != "touch" || derive.PC != 2 {
		t.Errorf("derive step anchored at %+v, want pc 2 native touch", derive)
	}
	if !strings.Contains(derive.Detail, "[4,84]") {
		t.Errorf("derive step does not carry the derived offset window: %q", derive.Detail)
	}

	v0 := Screen(screenProg(2, NativeSummary{MinOff: 0, MaxOff: 0, ForgeTag: true}))
	if !v0.Rejected() {
		t.Fatalf("forged zero-offset deref not rejected: %+v", v0)
	}
	for _, s := range v0.Provenance {
		if s.Kind == ProvDerive {
			t.Fatalf("zero-offset dereference grew a derive step: %v", v0.Provenance)
		}
	}
}

// TestScreenCacheConcurrent releases 16 goroutines at once on a cold cache:
// the first miss screens and every concurrent caller of the same program
// waits for that screen, so the burst costs exactly one miss. A program
// that fails to parse reaches every caller of a burst as an error and is
// never cached.
func TestScreenCacheConcurrent(t *testing.T) {
	const workers, rounds = 16, 50
	c := NewScreenCache(8)
	bad, err := os.ReadFile("testdata/bad/forged_tag.json")
	if err != nil {
		t.Fatal(err)
	}
	burst := func(raw []byte, check func(v *ScreenVerdict, err error) bool) {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for j := 0; j < rounds; j++ {
					if v, _, err := c.ScreenBytes(raw); !check(v, err) {
						t.Errorf("screen: %+v err=%v", v, err)
						return
					}
				}
			}()
		}
		close(start)
		wg.Wait()
	}
	burst(bad, func(v *ScreenVerdict, err error) bool { return err == nil && v.Rejected() })
	if hits, misses := c.Stats(); misses != 1 || hits != workers*rounds-1 {
		t.Fatalf("hits/misses = %d/%d, want %d/1", hits, misses, workers*rounds-1)
	}
	burst([]byte(`{"method":`), func(v *ScreenVerdict, err error) bool { return err != nil && v == nil })
	if c.Len() != 1 {
		t.Fatalf("parse failure cached: len=%d", c.Len())
	}
}
