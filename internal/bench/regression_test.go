package bench

import (
	"strings"
	"testing"
)

func snapOf(pairs map[string]float64) *Snapshot {
	s := NewSnapshot("")
	// Deterministic order for before-order assertions.
	for _, name := range []string{"a", "b", "c", "d"} {
		if ns, ok := pairs[name]; ok {
			s.Add(Result{Name: name, Iters: 1, NsPerOp: ns})
		}
	}
	return s
}

func TestRegressionsGate(t *testing.T) {
	before := snapOf(map[string]float64{"a": 100, "b": 100, "c": 100, "d": 0})
	after := snapOf(map[string]float64{"a": 109, "b": 125, "c": 80, "d": 50})

	regs := Regressions(before, after, 10)
	if len(regs) != 1 {
		t.Fatalf("regressions = %+v, want exactly b", regs)
	}
	r := regs[0]
	// a is within threshold, c improved, d has no baseline (NsPerOp 0).
	if r.Name != "b" || r.BeforeNS != 100 || r.AfterNS != 125 || r.DeltaPct != 25 {
		t.Fatalf("regression = %+v", r)
	}
	if s := r.String(); !strings.Contains(s, "b: 100.0 -> 125.0 ns/op (+25.0%)") {
		t.Fatalf("rendering: %q", s)
	}

	// Exactly at threshold passes (strictly-more-than semantics); a lower
	// threshold catches the 9%% case too.
	if regs := Regressions(before, after, 25); len(regs) != 0 {
		t.Fatalf("at-threshold flagged: %+v", regs)
	}
	if regs := Regressions(before, after, 5); len(regs) != 2 {
		t.Fatalf("threshold 5 found %+v, want a and b", regs)
	}

	// A benchmark missing from the after snapshot fails the gate, whatever
	// the threshold: deleting or renaming a slowed row must not pass. Rows
	// only in the after snapshot are new, not regressions.
	partial := snapOf(map[string]float64{"a": 100, "b": 100})
	regs = Regressions(before, partial, 1000)
	if len(regs) != 2 || !regs[0].Missing || regs[0].Name != "c" || regs[1].Name != "d" {
		t.Fatalf("missing-after regressions = %+v, want c and d", regs)
	}
	if s := regs[0].String(); !strings.Contains(s, "c: 100.0 ns/op before, missing from the after snapshot") {
		t.Fatalf("rendering: %q", s)
	}
	if regs := Regressions(partial, before, 10); len(regs) != 0 {
		t.Fatalf("after-only rows flagged: %+v", regs)
	}

	// Snapshots from different CPU counts are refused outright.
	if err := Comparable(before, after); err != nil {
		t.Fatalf("same-host snapshots refused: %v", err)
	}
	other := snapOf(map[string]float64{"a": 100})
	other.NumCPU = before.NumCPU + 1
	if err := Comparable(before, other); err == nil || !strings.Contains(err.Error(), "different CPU counts") {
		t.Fatalf("num_cpu mismatch: err = %v", err)
	}
}
