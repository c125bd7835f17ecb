package mte4jni

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"mte4jni/internal/bench"
)

// This file drives the paper's §5.3.2 multi-thread JNI overhead experiment
// (Figure 6): 64 threads concurrently run a native method that repeatedly
// (10000 times) acquires, bulk-reads and releases an int[1024]. In the
// "same array" test all threads hammer one array (contending on MTE4JNI's
// per-object lock); in the "different arrays" test each thread has its own
// (contending, at most, on the hash-table locks). Five protected schemes
// are compared, each normalized to no protection: MTE4JNI two-tier
// sync/async, MTE4JNI with a naive global lock sync/async, and guarded
// copy.

// Fig6Variant identifies one bar group of Figure 6.
type Fig6Variant struct {
	// Display is the legend name.
	Display string
	// Scheme is the base scheme.
	Scheme Scheme
	// Locking applies to MTE schemes.
	Locking Locking
}

// Fig6Variants returns the five protected configurations of Figure 6 plus
// the baseline (first entry).
func Fig6Variants() []Fig6Variant {
	return []Fig6Variant{
		{"No protection", NoProtection, TwoTierLocking},
		{"MTE4JNI+Sync", MTESync, TwoTierLocking},
		{"MTE4JNI+Async", MTEAsync, TwoTierLocking},
		{"MTE4JNI+Sync+global_lock", MTESync, GlobalLocking},
		{"MTE4JNI+Async+global_lock", MTEAsync, GlobalLocking},
		{"Guarded Copy", GuardedCopy, TwoTierLocking},
	}
}

// Fig6Options parameterizes the experiment; zero values select the paper's
// settings.
type Fig6Options struct {
	// Threads is the number of concurrent native threads (default 64).
	Threads int
	// Iters is the per-thread acquire/read/release count (default 10000).
	Iters int
	// ArrayLen is the array length in ints (default 1024).
	ArrayLen int
	// Reps and Warmup control the timing harness (defaults 5 and 1).
	Reps, Warmup int
}

func (o *Fig6Options) defaults() {
	if o.Threads == 0 {
		o.Threads = 64
	}
	if o.Iters == 0 {
		o.Iters = 10000
	}
	if o.ArrayLen == 0 {
		o.ArrayLen = 1024
	}
	if o.Reps == 0 {
		o.Reps = 5
	}
	if o.Warmup == 0 {
		o.Warmup = 1
	}
}

// Contention captures the protector's lock statistics for one run: how
// many table-lock and object-lock acquisitions found the lock held. On
// hosts with little hardware parallelism the wall-clock gap between
// two-tier and global locking collapses (only one thread runs at a time),
// but these counters still expose the §5.3.2 difference.
type Contention struct {
	// Table and Object are contended-acquisition counts.
	Table, Object int64
}

// Fig6Result holds normalized execution times for both tests.
type Fig6Result struct {
	// Variants lists the measured configurations (baseline excluded).
	Variants []Fig6Variant
	// SameArray and DifferentArrays are slowdown ratios vs no protection,
	// index-aligned with Variants.
	SameArray, DifferentArrays []float64
	// SameArrayContention and DifferentArraysContention carry the lock
	// statistics for the MTE variants (zero for guarded copy), index-
	// aligned with Variants.
	SameArrayContention, DifferentArraysContention []Contention
}

// Figure renders the result in the shape of the paper's Figure 6.
func (r *Fig6Result) Figure() *bench.Figure {
	fig := bench.NewFigure("Figure 6: multi-thread concurrent reads, normalized to no protection", "test")
	for i, v := range r.Variants {
		s := fig.AddSeries(v.Display)
		s.Add("Same Array", r.SameArray[i])
		s.Add("Different Array", r.DifferentArrays[i])
	}
	return fig
}

// fig6Run builds one configuration and measures the wall-clock time for
// all threads to finish; sameArray selects the contention pattern.
func fig6Run(v Fig6Variant, sameArray bool, o Fig6Options) (time.Duration, Contention, error) {
	s, err := newFig6Setup(v, sameArray, o, 0)
	if err != nil {
		return 0, Contention{}, err
	}
	d, err := s.measure(o)
	if err != nil {
		return 0, Contention{}, err
	}
	return d, s.contention(), nil
}

// fig6Setup is one configuration built and ready to run: a runtime, one
// env, array and scratch buffer per thread. Building it maps a 64 MiB heap,
// which costs more than a small run itself, so callers build once and time
// only run.
type fig6Setup struct {
	name    string
	rt      *Runtime
	iters   int
	envs    []*Env
	arrays  []*Object
	scratch [][]byte
}

// newFig6Setup builds a configuration. hashTables overrides the protector's
// hash-table count (0 keeps the paper's 16); the hash-table ablation sweeps
// it.
func newFig6Setup(v Fig6Variant, sameArray bool, o Fig6Options, hashTables int) (*fig6Setup, error) {
	rt, err := New(Config{
		Scheme:     v.Scheme,
		Locking:    v.Locking,
		HashTables: hashTables,
		HeapSize:   uint64(64<<20) + uint64(o.Threads*o.ArrayLen*8),
	})
	if err != nil {
		return nil, err
	}
	s := &fig6Setup{
		name:    v.Display,
		rt:      rt,
		iters:   o.Iters,
		envs:    make([]*Env, o.Threads),
		arrays:  make([]*Object, o.Threads),
		scratch: make([][]byte, o.Threads),
	}
	var arr *Object
	for i := 0; i < o.Threads; i++ {
		s.envs[i], err = rt.AttachEnv(fmt.Sprintf("native-%d", i))
		if err != nil {
			return nil, err
		}
		if !sameArray || i == 0 {
			if arr, err = s.envs[i].NewIntArray(o.ArrayLen); err != nil {
				return nil, err
			}
		}
		s.arrays[i] = arr
		s.scratch[i] = make([]byte, o.ArrayLen*4)
	}
	return s, nil
}

// measure returns the median wall-clock time of o.Reps runs after o.Warmup
// unrecorded ones.
func (s *fig6Setup) measure(o Fig6Options) (time.Duration, error) {
	var firstErr error
	d := bench.Measure(o.Warmup, o.Reps, func() {
		if err := s.run(); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	return d, firstErr
}

// run is one timed run: every thread's native method concurrently
// acquires, bulk-reads and releases its array iters times.
func (s *fig6Setup) run() error {
	errs := make([]error, len(s.envs))
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(len(s.envs))
	for id := range s.envs {
		go func() {
			defer done.Done()
			env, arr, scratch := s.envs[id], s.arrays[id], s.scratch[id]
			start.Wait()
			var sink int64
			fault, err := env.CallNative("readArray", Regular, func(e *Env) error {
				for it := 0; it < s.iters; it++ {
					p, err := e.GetPrimitiveArrayCritical(arr)
					if err != nil {
						return err
					}
					e.CopyToNative(scratch, p)
					// The "read": sum the elements natively, the work
					// the paper's native method exists to do.
					for i := 0; i+4 <= len(scratch); i += 4 {
						sink += int64(int32(uint32(scratch[i]) | uint32(scratch[i+1])<<8 |
							uint32(scratch[i+2])<<16 | uint32(scratch[i+3])<<24))
					}
					if err := e.ReleasePrimitiveArrayCritical(arr, p, JNIAbort); err != nil {
						return err
					}
				}
				return nil
			})
			_ = sink
			if fault != nil {
				err = fault
			}
			errs[id] = err
		}()
	}
	start.Done()
	done.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("fig6 %s: %w", s.name, err)
	}
	return nil
}

// contention reads the protector's lock statistics accumulated over every
// run so far (zero for guarded copy and no protection).
func (s *fig6Setup) contention() Contention {
	p := s.rt.Protector()
	if p == nil {
		return Contention{}
	}
	st := p.Stats()
	return Contention{Table: st.TableLockContended, Object: st.ObjectLockContended}
}

// RunFig6 runs both tests across all configurations and normalizes.
func RunFig6(o Fig6Options) (*Fig6Result, error) {
	o.defaults()
	variants := Fig6Variants()
	res := &Fig6Result{Variants: variants[1:]}

	var baseSame, baseDiff time.Duration
	for i, v := range variants {
		same, sameCont, err := fig6Run(v, true, o)
		if err != nil {
			return nil, err
		}
		diff, diffCont, err := fig6Run(v, false, o)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			baseSame, baseDiff = same, diff
			continue
		}
		res.SameArray = append(res.SameArray, float64(same)/float64(baseSame))
		res.DifferentArrays = append(res.DifferentArrays, float64(diff)/float64(baseDiff))
		res.SameArrayContention = append(res.SameArrayContention, sameCont)
		res.DifferentArraysContention = append(res.DifferentArraysContention, diffCont)
	}
	return res, nil
}

// ContentionTable renders the per-variant lock statistics.
func (r *Fig6Result) ContentionTable() *bench.Table {
	t := bench.NewTable("Figure 6 auxiliary: contended lock acquisitions (counts per full run)",
		"variant", "same array (table/object)", "different arrays (table/object)")
	for i, v := range r.Variants {
		if i >= len(r.SameArrayContention) {
			break
		}
		sc, dc := r.SameArrayContention[i], r.DifferentArraysContention[i]
		t.AddRow(v.Display,
			fmt.Sprintf("%d / %d", sc.Table, sc.Object),
			fmt.Sprintf("%d / %d", dc.Table, dc.Object))
	}
	return t
}
