package workloads_test

import (
	"context"
	"testing"

	"mte4jni"
	"mte4jni/internal/pool"
	"mte4jni/internal/workloads"
)

// TestServedRunsLeaveInputsUnwritten serves every item under every scheme
// from one pool, at both scales, and then checks that each cached seeded
// input still equals a fresh run of its generator: workloads write their
// results into the Java arrays, never into the bytes Setup copied from.
func TestServedRunsLeaveInputsUnwritten(t *testing.T) {
	p := pool.New(pool.Config{MaxSessions: 4})
	t.Cleanup(p.Close)
	ctx := context.Background()
	for _, scale := range []workloads.Scale{workloads.ScaleSmall, workloads.ScaleDefault} {
		for _, scheme := range mte4jni.Schemes() {
			s, err := p.Acquire(ctx, scheme)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workloads.All(scale) {
				res := s.RunWorkload(nil, w.Name(), scale, 1)
				if res.Fault != nil || res.Err != nil || res.Ret != 1 {
					t.Fatalf("%s under %s: ret=%d fault=%v err=%v", w.Name(), scheme, res.Ret, res.Fault, res.Err)
				}
			}
			p.Release(s)
		}
	}
	n, err := workloads.CheckInputs()
	if err != nil {
		t.Fatal(err)
	}
	// Eight images plus eight other generators, at each scale.
	if n < 32 {
		t.Fatalf("checked %d cached inputs, want at least 32 (16 per scale)", n)
	}
}
