package mte4jni

// One testing.B benchmark family per table/figure of the paper's
// evaluation, plus ablation and micro benchmarks. Comparing the ns/op of
// the sub-benchmarks across schemes reproduces the paper's ratios; the
// `mte4jni` command prints the same data as ready-made tables/figures.
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"sync"
	"testing"

	"mte4jni/internal/analysis"
	"mte4jni/internal/interp"
	"mte4jni/internal/jni"
	"mte4jni/internal/workloads"
)

// benchEnv builds a runtime + env for a scheme, failing the benchmark on
// error.
func benchEnv(b *testing.B, cfg Config) (*Runtime, *Env) {
	b.Helper()
	rt, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	env, err := rt.AttachEnv("bench")
	if err != nil {
		b.Fatal(err)
	}
	return rt, env
}

// BenchmarkFig4Effectiveness measures the cost of detecting (or missing)
// the paper's Figure 3 OOB write under each scheme, end to end including
// runtime construction — the cost of one crash diagnosis.
func BenchmarkFig4Effectiveness(b *testing.B) {
	for _, scheme := range Schemes() {
		b.Run(scheme.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunDetection(scheme, ScenarioOOBWrite); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5SingleThread is the §5.3.1 experiment: one native
// acquire/copy/release of int[n]→int[n] per iteration. Compare ns/op
// across schemes at fixed n for the paper's ratios.
func BenchmarkFig5SingleThread(b *testing.B) {
	for _, scheme := range Schemes() {
		for _, pow := range []int{1, 4, 8, 12} {
			n := 1 << pow
			b.Run(fmt.Sprintf("%s/n=2^%d", scheme, pow), func(b *testing.B) {
				_, env := benchEnv(b, Config{Scheme: scheme, HeapSize: 16 << 20})
				src, err := env.NewIntArray(n)
				if err != nil {
					b.Fatal(err)
				}
				dst, err := env.NewIntArray(n)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(n * 4))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fault, err := env.CallNative("copyArrays", Regular, func(e *Env) error {
						return copyNative(e, src, dst, n*4)
					})
					if fault != nil || err != nil {
						b.Fatalf("fault=%v err=%v", fault, err)
					}
				}
			})
		}
	}
}

// BenchmarkFig5Elision is the proof-carrying elision experiment: the same
// screened-safe program (a hot loop of statically proven in-bounds array
// accesses plus one in-payload native call) under MTE-Sync, executed fully
// checked versus with its compiled elision mask bound. The delta is the tag
// check cost the admission screen's proofs discharge.
func BenchmarkFig5Elision(b *testing.B) {
	p := elisionBenchProgram()
	v := analysis.Screen(p)
	if v.Verdict != analysis.VerdictSafe || v.Elision == nil {
		b.Fatalf("elision bench program not screened safe: %+v", v)
	}
	for _, elide := range []bool{false, true} {
		variant := "checked"
		if elide {
			variant = "elided"
		}
		b.Run(variant, func(b *testing.B) {
			_, env := benchEnv(b, Config{Scheme: MTESync, HeapSize: 256 << 20})
			ip := interp.New(env)
			// One interpreter runs all b.N iterations; the cumulative step
			// budget is a safety net, not part of the measured work.
			ip.MaxSteps = 1 << 62
			for name, sum := range p.Natives {
				ip.RegisterNative(name, interp.NativeMethod{Kind: sum.Kind, Body: sum.Materialize()})
			}
			if elide {
				if err := v.Elision.ValidateBinding(p); err != nil {
					b.Fatal(err)
				}
				ip.BindElision(v.Elision.Mask())
			}
			b.SetBytes(elisionBenchBytesPerOp)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ret, fault, err := ip.InvokeCtx(nil, p.Method)
				if ret != 7 || fault != nil || err != nil {
					b.Fatalf("ret=%d fault=%v err=%v", ret, fault, err)
				}
			}
		})
	}
}

// Elision benchmark program shape: a 64-iteration loop over 16 proven
// in-bounds aget and 16 aput sites on an int[16], then one in-payload
// native call — every heap access in it elides under the compiled mask.
const (
	elisionBenchArrLen = 16
	elisionBenchSites  = 16
	elisionBenchLoops  = 64
	// Bytes of proven array traffic per run: 4 bytes per access, one aget
	// and one aput per site per loop iteration.
	elisionBenchBytesPerOp = int64(elisionBenchLoops * elisionBenchSites * 2 * 4)
)

// elisionBenchProgram builds the proof-carrying elision benchmark input: a
// screened-safe program whose hot loop is nothing but statically proven
// in-bounds array traffic. Under the elision mask every access dispatches
// as a guard-free superinstruction; fully checked, every access pays the
// SWAR tag compare — the pair isolates what the proofs buy.
func elisionBenchProgram() *analysis.Program {
	code := []interp.Inst{
		{Op: interp.OpConst, A: elisionBenchArrLen},
		{Op: interp.OpNewArray, A: 0},
		{Op: interp.OpConst, A: elisionBenchLoops},
		{Op: interp.OpStore, A: 0},
	}
	loopStart := int64(len(code))
	for i := 0; i < elisionBenchSites; i++ {
		idx := int64(i % elisionBenchArrLen)
		code = append(code,
			interp.Inst{Op: interp.OpConst, A: idx},
			interp.Inst{Op: interp.OpArrayGet, A: 0},
			interp.Inst{Op: interp.OpStore, A: 1},
			interp.Inst{Op: interp.OpConst, A: idx},
			interp.Inst{Op: interp.OpConst, A: 7},
			interp.Inst{Op: interp.OpArrayPut, A: 0},
		)
	}
	exit := int64(len(code)) + 7
	code = append(code,
		interp.Inst{Op: interp.OpLoad, A: 0},
		interp.Inst{Op: interp.OpConst, A: 1},
		interp.Inst{Op: interp.OpSub},
		interp.Inst{Op: interp.OpStore, A: 0},
		interp.Inst{Op: interp.OpLoad, A: 0},
		interp.Inst{Op: interp.OpJmpIfZero, A: exit},
		interp.Inst{Op: interp.OpJmp, A: loopStart},
		// exit:
		interp.Inst{Op: interp.OpCallNative, A: 0, B: 0},
		interp.Inst{Op: interp.OpConst, A: 7},
		interp.Inst{Op: interp.OpReturn},
	)
	return &analysis.Program{
		Method: &interp.Method{
			Name:        "fig5_elide",
			Code:        code,
			MaxLocals:   2,
			MaxRefs:     1,
			NativeNames: []string{"bulk"},
		},
		Natives: map[string]analysis.NativeSummary{
			// In-payload: int[16] is 64 bytes, granule-rounded end 64.
			"bulk": {MinOff: 0, MaxOff: 63},
		},
	}
}

// BenchmarkFig6MultiThread is the §5.3.2 experiment: each iteration is one
// multi-thread run (8 threads × 200 acquire/read/release of an int[1024]),
// in both contention patterns. The runtime, envs and arrays are built
// before the timer starts, so an op times the concurrent run alone.
func BenchmarkFig6MultiThread(b *testing.B) {
	o := Fig6Options{Threads: 8, Iters: 200, ArrayLen: 1024}
	for _, v := range Fig6Variants() {
		for _, same := range []bool{true, false} {
			test := "different-arrays"
			if same {
				test = "same-array"
			}
			b.Run(v.Display+"/"+test, func(b *testing.B) {
				s, err := newFig6Setup(v, same, o, 0)
				if err != nil {
					b.Fatal(err)
				}
				benchFig6(b, s)
			})
		}
	}
}

// benchFig6 times b.N runs of a built Figure 6 configuration.
func benchFig6(b *testing.B, s *fig6Setup) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7SingleCore is the §5.4 single-core experiment: one run of
// each GeekBench-style workload per iteration, per scheme.
func BenchmarkFig7SingleCore(b *testing.B) {
	for _, w := range workloads.All(workloads.ScaleSmall) {
		for _, scheme := range Schemes() {
			b.Run(w.Name()+"/"+scheme.String(), func(b *testing.B) {
				rt, env := benchEnv(b, Config{Scheme: scheme, HeapSize: 256 << 20})
				inst, err := workloads.ByName(w.Name(), workloads.ScaleSmall)
				if err != nil {
					b.Fatal(err)
				}
				if err := inst.Setup(env); err != nil {
					b.Fatal(err)
				}
				_ = rt
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fault, err := env.CallNative(inst.Name(), jni.Regular, inst.Run)
					if fault != nil || err != nil {
						b.Fatalf("fault=%v err=%v", fault, err)
					}
				}
			})
		}
	}
}

// BenchmarkFig8MultiCore is the §5.4 multi-core experiment on a
// representative slice: four workloads (two bulk, two of the paper's
// intensive exceptions) run with 4 concurrent copies.
func BenchmarkFig8MultiCore(b *testing.B) {
	const cores = 4
	for _, name := range []string{"File Compression", "Ray Tracer", "Clang", "PDF Renderer"} {
		for _, scheme := range Schemes() {
			b.Run(name+"/"+scheme.String(), func(b *testing.B) {
				rt, err := New(Config{Scheme: scheme, HeapSize: 256 << 20})
				if err != nil {
					b.Fatal(err)
				}
				insts := make([]workloads.Workload, cores)
				envs := make([]*Env, cores)
				for c := 0; c < cores; c++ {
					insts[c], err = workloads.ByName(name, workloads.ScaleSmall)
					if err != nil {
						b.Fatal(err)
					}
					envs[c], err = rt.AttachEnv(fmt.Sprintf("w%d", c))
					if err != nil {
						b.Fatal(err)
					}
					if err := insts[c].Setup(envs[c]); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var wg sync.WaitGroup
					wg.Add(cores)
					for c := 0; c < cores; c++ {
						go func(c int) {
							defer wg.Done()
							fault, err := envs[c].CallNative(name, jni.Regular, insts[c].Run)
							if fault != nil || err != nil {
								b.Errorf("fault=%v err=%v", fault, err)
							}
						}(c)
					}
					wg.Wait()
				}
			})
		}
	}
}

// BenchmarkTable1Interfaces covers the full Table 1 surface under MTE4JNI:
// one get+release per iteration, per interface family.
func BenchmarkTable1Interfaces(b *testing.B) {
	_, env := benchEnv(b, Config{Scheme: MTESync, HeapSize: 32 << 20})
	arr, err := env.NewIntArray(256)
	if err != nil {
		b.Fatal(err)
	}
	str, err := env.NewString("the quick brown fox jumps over the lazy dog")
	if err != nil {
		b.Fatal(err)
	}

	b.Run("GetPrimitiveArrayCritical", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fault, err := env.CallNative("t", Regular, func(e *Env) error {
				p, err := e.GetPrimitiveArrayCritical(arr)
				if err != nil {
					return err
				}
				return e.ReleasePrimitiveArrayCritical(arr, p, ReleaseDefault)
			})
			if fault != nil || err != nil {
				b.Fatalf("fault=%v err=%v", fault, err)
			}
		}
	})
	b.Run("GetIntArrayElements", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fault, err := env.CallNative("t", Regular, func(e *Env) error {
				p, err := e.GetIntArrayElements(arr)
				if err != nil {
					return err
				}
				return e.ReleaseIntArrayElements(arr, p, ReleaseDefault)
			})
			if fault != nil || err != nil {
				b.Fatalf("fault=%v err=%v", fault, err)
			}
		}
	})
	b.Run("GetStringCritical", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fault, err := env.CallNative("t", Regular, func(e *Env) error {
				p, err := e.GetStringCritical(str)
				if err != nil {
					return err
				}
				return e.ReleaseStringCritical(str, p)
			})
			if fault != nil || err != nil {
				b.Fatalf("fault=%v err=%v", fault, err)
			}
		}
	})
	b.Run("GetStringChars", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fault, err := env.CallNative("t", Regular, func(e *Env) error {
				p, err := e.GetStringChars(str)
				if err != nil {
					return err
				}
				return e.ReleaseStringChars(str, p)
			})
			if fault != nil || err != nil {
				b.Fatalf("fault=%v err=%v", fault, err)
			}
		}
	})
	b.Run("GetStringUTFChars", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fault, err := env.CallNative("t", Regular, func(e *Env) error {
				p, _, err := e.GetStringUTFChars(str)
				if err != nil {
					return err
				}
				return e.ReleaseStringUTFChars(str, p)
			})
			if fault != nil || err != nil {
				b.Fatalf("fault=%v err=%v", fault, err)
			}
		}
	})
	b.Run("GetIntArrayRegion", func(b *testing.B) {
		buf := make([]byte, 64*4)
		for i := 0; i < b.N; i++ {
			if err := env.GetArrayRegion(KindInt, arr, 16, 64, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationAlignment times the full §4.1 alignment ablation.
func BenchmarkAblationAlignment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunAlignmentAblation([]int{1, 8, 16, 24}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationHashTables compares the two-tier design's k settings on
// the different-arrays contention test.
func BenchmarkAblationHashTables(b *testing.B) {
	o := Fig6Options{Threads: 8, Iters: 100, ArrayLen: 256}
	for _, k := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			s, err := newHashTableSetup(k, o)
			if err != nil {
				b.Fatal(err)
			}
			benchFig6(b, s)
		})
	}
}

// BenchmarkTagAllocRelease is the microbenchmark of the paper's core
// operation: Algorithm 1 + Algorithm 2 on a 1 KiB object, per locking
// scheme.
func BenchmarkTagAllocRelease(b *testing.B) {
	for _, locking := range []Locking{TwoTierLocking, GlobalLocking} {
		b.Run(locking.String(), func(b *testing.B) {
			rt, env := benchEnv(b, Config{Scheme: MTESync, Locking: locking, HeapSize: 16 << 20})
			arr, err := env.NewIntArray(256)
			if err != nil {
				b.Fatal(err)
			}
			p := rt.Protector()
			th := env.Thread()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ptr, err := p.Acquire(th, arr, arr.DataBegin(), arr.DataEnd())
				if err != nil {
					b.Fatal(err)
				}
				if err := p.Release(th, arr, ptr, arr.DataBegin(), arr.DataEnd(), ReleaseDefault); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckedAccess compares the simulated load/store unit with
// checking off vs on — the reproduction's stand-in for the hardware tag
// check cost.
func BenchmarkCheckedAccess(b *testing.B) {
	for _, scheme := range []Scheme{NoProtection, MTESync} {
		b.Run(scheme.String(), func(b *testing.B) {
			_, env := benchEnv(b, Config{Scheme: scheme, HeapSize: 16 << 20})
			arr, err := env.NewIntArray(1024)
			if err != nil {
				b.Fatal(err)
			}
			fault, err := env.CallNative("bench", Regular, func(e *Env) error {
				p, err := e.GetPrimitiveArrayCritical(arr)
				if err != nil {
					return err
				}
				b.ResetTimer()
				var sink int32
				for i := 0; i < b.N; i++ {
					sink += e.LoadInt(p.Add(int64(i%1024) * 4))
				}
				b.StopTimer()
				_ = sink
				return e.ReleasePrimitiveArrayCritical(arr, p, ReleaseDefault)
			})
			if fault != nil || err != nil {
				b.Fatalf("fault=%v err=%v", fault, err)
			}
		})
	}
}

// BenchmarkTagFootprint measures the hierarchical tag store's resident
// footprint for a session-shaped working set: 32 pinned (acquired, hence
// tagged) int[1024] arrays on a 64 MiB heap, with acquire/release churn on
// one more. Alongside ns/op for the churn it reports two end-of-run gauges
// the snapshot schema understands (tagB/op, flatTagB/op): resident tag
// bytes under the two-level store versus what the flat per-granule array
// would hold resident for the same mappings.
func BenchmarkTagFootprint(b *testing.B) {
	b.Run("session", func(b *testing.B) {
		rt, env := benchEnv(b, Config{Scheme: MTESync, HeapSize: 64 << 20})
		p := rt.Protector()
		th := env.Thread()
		for i := 0; i < 32; i++ {
			arr, err := env.NewIntArray(1024)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Acquire(th, arr, arr.DataBegin(), arr.DataEnd()); err != nil {
				b.Fatal(err)
			}
		}
		churn, err := env.NewIntArray(1024)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ptr, err := p.Acquire(th, churn, churn.DataBegin(), churn.DataEnd())
			if err != nil {
				b.Fatal(err)
			}
			if err := p.Release(th, churn, ptr, churn.DataBegin(), churn.DataEnd(), ReleaseDefault); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		ts := rt.VM().Space.TagStats()
		b.ReportMetric(float64(ts.BytesResident), "tagB/op")
		b.ReportMetric(float64(ts.BytesFlatEquiv), "flatTagB/op")
		if ts.BytesFlatEquiv < 10*ts.BytesResident {
			b.Fatalf("tag residency not >=10x under flat: resident=%d flat=%d", ts.BytesResident, ts.BytesFlatEquiv)
		}
	})
}
