package workloads_test

import (
	"testing"

	"mte4jni"
	"mte4jni/internal/workloads"
)

// BenchmarkWorkloadSetup times one Setup of each item at ScaleDefault on a
// warm pool-sized MTE+Sync runtime: an op is the Setup a served request
// pays before the item's first run. Attaching the env, and the DetachEnv
// and VM GC that empty the heap again, run outside the timer.
func BenchmarkWorkloadSetup(b *testing.B) {
	for _, w := range workloads.All(workloads.ScaleDefault) {
		b.Run(w.Name(), func(b *testing.B) {
			rt, err := mte4jni.New(mte4jni.Config{Scheme: mte4jni.MTESync, HeapSize: 32 << 20})
			if err != nil {
				b.Fatal(err)
			}
			defer rt.VM().Close()
			setup := func() {
				env, err := rt.AttachEnv("setup")
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				err = w.Setup(env)
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				rt.DetachEnv(env)
				rt.GC()
			}
			b.StopTimer()
			setup() // warm the runtime's heap and the item's input
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				setup()
			}
		})
	}
}
