package analysis

import (
	"testing"

	"mte4jni/internal/interp"
)

// BenchmarkScreenInline is the serving layer's admission screen on an
// inline program: the cold path (parse + abstract interpretation, what a
// verdict-cache miss costs) versus a verdict-cache hit (one hash + map
// lookup, what every resubmission costs).
func BenchmarkScreenInline(b *testing.B) {
	raw := screenBenchProgram(b)
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := ParseProgram(raw)
			if err != nil {
				b.Fatal(err)
			}
			if v := Screen(p); !v.Rejected() {
				b.Fatalf("screen bench program not rejected: %+v", v)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		c := NewScreenCache(0)
		if _, _, err := c.ScreenBytes(raw); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, hit, err := c.ScreenBytes(raw)
			if err != nil {
				b.Fatal(err)
			}
			if !hit || !v.Rejected() {
				b.Fatalf("expected cached rejection, got hit=%v %+v", hit, v)
			}
		}
	})
}

// screenBenchProgram marshals the admission-screen benchmark input: a
// use-after-release program the screen provably rejects, shaped like the
// serving layer's canned probes.
func screenBenchProgram(b *testing.B) []byte {
	b.Helper()
	raw, err := MarshalProgram(&Program{
		Method: &interp.Method{
			Name: "screen_bench",
			Code: []interp.Inst{
				{Op: interp.OpConst, A: 16},
				{Op: interp.OpNewArray, A: 0},
				{Op: interp.OpCallNative, A: 0, B: 0},
				{Op: interp.OpConst, A: 42},
				{Op: interp.OpReturn},
			},
			MaxLocals: 1, MaxRefs: 1,
			NativeNames: []string{"stale"},
		},
		Natives: map[string]NativeSummary{
			"stale": {MinOff: 0, MaxOff: 63, UseAfterRelease: true},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	return raw
}
