package pool

import (
	"context"
	"testing"

	"mte4jni"
	"mte4jni/internal/workloads"
)

// TestRecycleBoundsResidentData runs the 16 items twice on one warm session
// per scheme. Each recycle resets both heaps to their initial bump state, so
// the second pass must not grow the session's resident data. Under
// MTE+Sync, which leaves the native heap untouched, the resident data after
// both passes must also be no more than the largest single item's on a
// fresh session: without the reset the exact-size free lists keep every
// item's blocks resident, about twice that here.
func TestRecycleBoundsResidentData(t *testing.T) {
	ctx := context.Background()
	items := workloads.All(workloads.ScaleDefault)
	run := func(p *Pool, scheme mte4jni.Scheme, name string) *Session {
		t.Helper()
		s, err := p.Acquire(ctx, scheme)
		if err != nil {
			t.Fatal(err)
		}
		if res := s.RunWorkload(nil, name, workloads.ScaleDefault, 1); res.Fault != nil || res.Err != nil {
			t.Fatalf("%s under %s: fault=%v err=%v", name, scheme, res.Fault, res.Err)
		}
		return s
	}
	resident := func(s *Session) uint64 { return s.rt.VM().Space.TagStats().DataBytesResident }

	for _, scheme := range []mte4jni.Scheme{mte4jni.MTESync, mte4jni.GuardedCopy} {
		p := testPool(t, Config{MaxSessions: 1, HeapSize: 32 << 20})
		var warm *Session
		var afterPass [2]uint64
		for pass := range afterPass {
			for _, w := range items {
				s := run(p, scheme, w.Name())
				if warm == nil {
					warm = s
				} else if s != warm {
					t.Fatalf("%s: pass %d ran %s on %s, want the one warm session %s", scheme, pass, w.Name(), s.Name(), warm.Name())
				}
				p.Release(s)
			}
			afterPass[pass] = resident(warm)
		}
		if afterPass[1] > afterPass[0] {
			t.Fatalf("%s: resident data grew in the second pass: %d -> %d bytes", scheme, afterPass[0], afterPass[1])
		}
		if scheme != mte4jni.MTESync {
			continue
		}
		// A second pool, retiring each session, runs every item on a
		// fresh one.
		fresh := testPool(t, Config{MaxSessions: 1, HeapSize: 32 << 20})
		var largest uint64
		for _, w := range items {
			s := run(fresh, scheme, w.Name())
			largest = max(largest, resident(s))
			fresh.Retire(s, "fresh session per item")
		}
		if afterPass[1] > largest {
			t.Fatalf("%s: resident data after two passes is %d bytes, more than the largest single item's %d", scheme, afterPass[1], largest)
		}
	}
}
