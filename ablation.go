package mte4jni

import (
	"fmt"
	"time"

	"mte4jni/internal/bench"
	"mte4jni/internal/core"
	"mte4jni/internal/jni"
	"mte4jni/internal/mte"
	"mte4jni/internal/vm"
)

// This file implements the ablation experiments DESIGN.md calls out beyond
// the paper's own figures: the §4.1 heap-alignment hazard (Extra A), the
// hash-table-count sweep behind the two-tier design (Extra B), and the
// 4-bit tag collision probability with its neighbour-exclusion mitigation
// (Extra C).

// AlignmentAblationResult quantifies the §4.1 granule-sharing hazard: how
// many adjacent-object OOB writes each heap alignment lets slip through.
type AlignmentAblationResult struct {
	// Sizes are the payload sizes (bytes) trialled.
	Sizes []int
	// MissedByAlignment maps alignment (8 or 16) to the number of missed
	// detections across all sizes.
	MissedByAlignment map[uint64]int
	// PerSize maps alignment to per-size miss flags, index-aligned with
	// Sizes.
	PerSize map[uint64][]bool
}

// Table renders the result.
func (r *AlignmentAblationResult) Table() *bench.Table {
	t := bench.NewTable("Ablation A (§4.1): adjacent-object OOB write detection vs heap alignment",
		"payload bytes", "align 8", "align 16")
	verdict := func(missed bool) string {
		if missed {
			return "MISSED"
		}
		return "detected"
	}
	for i, size := range r.Sizes {
		t.AddRow(fmt.Sprintf("%d", size), verdict(r.PerSize[8][i]), verdict(r.PerSize[16][i]))
	}
	return t
}

// RunAlignmentAblation allocates pairs of adjacent byte arrays under
// MTE4JNI+Sync with 8- and 16-byte heap alignment, has native code write
// one byte into the neighbouring object, and records whether the write was
// detected. Under 16-byte alignment every such write is caught; under
// 8-byte alignment objects can share a tag granule and the write slips
// through — the reason §4.1 changes ART's allocator alignment.
func RunAlignmentAblation(sizes []int) (*AlignmentAblationResult, error) {
	if len(sizes) == 0 {
		for s := 1; s <= 48; s += 3 {
			sizes = append(sizes, s)
		}
	}
	res := &AlignmentAblationResult{
		Sizes:             sizes,
		MissedByAlignment: make(map[uint64]int),
		PerSize:           make(map[uint64][]bool),
	}
	for _, align := range []uint64{8, 16} {
		rt, err := New(Config{Scheme: MTESync, HeapAlignment: align, HeapSize: 16 << 20})
		if err != nil {
			return nil, err
		}
		env, err := rt.AttachEnv("main")
		if err != nil {
			return nil, err
		}
		for _, size := range sizes {
			a, err := env.NewArray(KindByte, size)
			if err != nil {
				return nil, err
			}
			b, err := env.NewArray(KindByte, size)
			if err != nil {
				return nil, err
			}
			offset := int64(b.Addr() - a.DataBegin()) // into b's header word
			fault, err := env.CallNative("oob_neighbor", Regular, func(e *Env) error {
				p, err := e.GetPrimitiveArrayCritical(a)
				if err != nil {
					return err
				}
				e.StoreByte(p.Add(offset), 0xFF)
				return e.ReleasePrimitiveArrayCritical(a, p, ReleaseDefault)
			})
			if err != nil {
				return nil, err
			}
			missed := fault == nil
			res.PerSize[align] = append(res.PerSize[align], missed)
			if missed {
				res.MissedByAlignment[align]++
			}
		}
	}
	return res, nil
}

// HashTableAblationResult is the Extra B sweep: Figure 6's different-array
// test as a function of the hash-table count k.
type HashTableAblationResult struct {
	// Ks are the swept hash-table counts.
	Ks []int
	// Durations are the wall-clock times, index-aligned with Ks.
	Durations []time.Duration
	// Normalized is each duration divided by the k=16 duration (the paper's
	// setting), if 16 is in the sweep; otherwise by the fastest.
	Normalized []float64
}

// Table renders the result.
func (r *HashTableAblationResult) Table() *bench.Table {
	t := bench.NewTable("Ablation B (§3.1.2): different-array contention vs hash-table count k",
		"k", "time", "vs k=16")
	for i, k := range r.Ks {
		t.AddRow(fmt.Sprintf("%d", k), r.Durations[i].String(), bench.Ratio(r.Normalized[i]))
	}
	return t
}

// RunHashTableAblation sweeps k over the Figure 6 different-arrays test
// under MTE4JNI+Sync with the two-tier scheme.
func RunHashTableAblation(ks []int, o Fig6Options) (*HashTableAblationResult, error) {
	if len(ks) == 0 {
		ks = []int{1, 2, 4, 8, 16, 32, 64}
	}
	o.defaults()
	res := &HashTableAblationResult{Ks: ks}
	base := time.Duration(0)
	for _, k := range ks {
		s, err := newHashTableSetup(k, o)
		if err != nil {
			return nil, err
		}
		d, err := s.measure(o)
		if err != nil {
			return nil, err
		}
		res.Durations = append(res.Durations, d)
		if k == 16 {
			base = d
		}
	}
	if base == 0 {
		base = res.Durations[0]
		for _, d := range res.Durations {
			if d < base {
				base = d
			}
		}
	}
	for _, d := range res.Durations {
		res.Normalized = append(res.Normalized, float64(d)/float64(base))
	}
	return res, nil
}

// newHashTableSetup builds the different-arrays Figure 6 test under
// MTE4JNI+Sync with two-tier locking over k hash tables.
func newHashTableSetup(k int, o Fig6Options) (*fig6Setup, error) {
	v := Fig6Variant{Display: fmt.Sprintf("k=%d", k), Scheme: MTESync, Locking: TwoTierLocking}
	return newFig6Setup(v, false, o, k)
}

// TagCollisionResult is the Extra C experiment: the probability that an OOB
// access from one tagged object into an adjacent tagged object goes
// undetected because both drew the same 4-bit tag, with and without the
// neighbour-exclusion hardening.
type TagCollisionResult struct {
	// Trials is the number of adjacent pairs tested per configuration.
	Trials int
	// MissedRandom counts undetected OOB writes with plain random tags
	// (expected ≈ Trials/15: tag 0 is excluded, leaving 15 values).
	MissedRandom int
	// MissedExcluding counts undetected OOB writes with neighbour tags
	// excluded from generation (expected 0).
	MissedExcluding int
}

// Table renders the result.
func (r *TagCollisionResult) Table() *bench.Table {
	t := bench.NewTable("Ablation C (§2.1): adjacent-object tag collisions over "+fmt.Sprintf("%d trials", r.Trials),
		"tag generation", "missed", "miss rate", "expected")
	t.AddRow("random (paper §3.1.1)",
		fmt.Sprintf("%d", r.MissedRandom),
		fmt.Sprintf("%.2f%%", 100*float64(r.MissedRandom)/float64(r.Trials)),
		"≈6.67% (1/15)")
	t.AddRow("neighbour-excluding IRG mask",
		fmt.Sprintf("%d", r.MissedExcluding),
		fmt.Sprintf("%.2f%%", 100*float64(r.MissedExcluding)/float64(r.Trials)),
		"0%")
	return t
}

// RunTagCollisionAblation measures adjacent-object tag collisions. Each
// trial allocates two adjacent byte arrays, acquires both through JNI (so
// both are tagged), then writes through the first array's pointer into the
// second array's payload. With independent random tags the write is missed
// whenever the tags collide; with neighbour exclusion it never is.
func RunTagCollisionAblation(trials int) (*TagCollisionResult, error) {
	if trials == 0 {
		trials = 1500
	}
	res := &TagCollisionResult{Trials: trials}
	for _, exclude := range []bool{false, true} {
		missed, err := tagCollisionTrials(trials, exclude)
		if err != nil {
			return nil, err
		}
		if exclude {
			res.MissedExcluding = missed
		} else {
			res.MissedRandom = missed
		}
	}
	return res, nil
}

// tagCollisionTrials runs the trial loop for one tag-generation policy.
func tagCollisionTrials(trials int, excludeNeighbors bool) (int, error) {
	// Build the runtime manually so the protector can be configured with
	// the hardening flag.
	v, err := vm.New(vm.Options{HeapSize: 64 << 20, MTE: true, CheckMode: mte.TCFSync, Seed: 97})
	if err != nil {
		return 0, err
	}
	protector, err := core.New(v, core.Config{ExcludeNeighbors: excludeNeighbors})
	if err != nil {
		return 0, err
	}
	th, err := v.AttachThread("main")
	if err != nil {
		return 0, err
	}
	env := jni.NewEnv(th, protector, true)

	missed := 0
	for i := 0; i < trials; i++ {
		a, err := env.NewArray(KindByte, 16)
		if err != nil {
			return 0, err
		}
		b, err := env.NewArray(KindByte, 16)
		if err != nil {
			return 0, err
		}
		offset := int64(b.DataBegin() - a.DataBegin())
		fault, err := env.CallNative("collide", Regular, func(e *Env) error {
			pa, err := e.GetPrimitiveArrayCritical(a)
			if err != nil {
				return err
			}
			pb, err := e.GetPrimitiveArrayCritical(b)
			if err != nil {
				return err
			}
			e.StoreByte(pa.Add(offset), 0x5A) // OOB from a into b's payload
			if err := e.ReleasePrimitiveArrayCritical(b, pb, ReleaseDefault); err != nil {
				return err
			}
			return e.ReleasePrimitiveArrayCritical(a, pa, ReleaseDefault)
		})
		if err != nil {
			return 0, err
		}
		if fault == nil {
			missed++
		}
		// Drop references so the heap can be collected periodically.
		env.DeleteLocalRef(a)
		env.DeleteLocalRef(b)
		if i%256 == 255 {
			v.GC()
		}
	}
	return missed, nil
}
