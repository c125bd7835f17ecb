package pool

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"mte4jni"
)

// BenchmarkThroughput measures concurrent lease throughput, AcquireFor +
// Release of a no-op lease (the pure admission path), at 1, 4 and 8
// shards. An op is one lease.
//
// Shape: 16 workers over 16 capacity tokens, each worker its own tenant,
// with tenants picked by probing the affinity hash so every shard homes
// the same number of workers. That is the geometry the router produces by
// design: each worker's home shard holds its warm session and a free token,
// so the measurement isolates admission cost instead of hash luck (random
// tenant names oversubscribe 2-token shards at high shard counts, and the
// queue churn drowns the admission signal). Sessions are warm after the
// first lap and leases run nothing, so what remains per op is the
// serialization the shard split exists to remove: token bookkeeping,
// warm-list push/pop and stats under the admission locks. Scaling beyond
// lock spreading needs real cores; on one CPU the shard counts mostly tie.
func BenchmarkThroughput(b *testing.B) {
	const workers = 16
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			p := New(Config{MaxSessions: workers, Shards: shards, MaxWaiters: 4 * workers, HeapSize: 4 << 20})
			defer p.Close()
			var tenants []string
			for shard := 0; shard < shards; shard++ {
				for probe, need := 0, workers/shards; need > 0; probe++ {
					name := fmt.Sprintf("bench-tenant-%d", probe)
					if p.HomeShard(name, mte4jni.NoProtection) == shard {
						tenants = append(tenants, name)
						need--
					}
					if probe > 1<<20 {
						b.Fatalf("no tenant hashes to shard %d", shard)
					}
				}
			}
			ctx := context.Background()
			lap := func(perWorker int) {
				var wg sync.WaitGroup
				wg.Add(len(tenants))
				for _, tenant := range tenants {
					go func() {
						defer wg.Done()
						for i := 0; i < perWorker; i++ {
							s, err := p.AcquireFor(ctx, mte4jni.NoProtection, tenant)
							if err != nil {
								b.Error(err)
								return
							}
							p.Release(s)
						}
					}()
				}
				wg.Wait()
			}
			lap(1) // build every worker's session before timing
			b.ResetTimer()
			lap((b.N + workers - 1) / workers)
		})
	}
}
