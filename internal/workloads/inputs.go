package workloads

import (
	"encoding/binary"
	"sync"

	"mte4jni/internal/jni"
	"mte4jni/internal/vm"
)

// Seeded inputs are the bytes an item's Setup copies into its Java arrays.
// Each is a pure function of (generator, size, seed), so it is built once
// per process, on first use, and never written again: every Setup after the
// first is NewArray plus one SetArrayRegion per array, and the copy into the
// Java heap still happens on every request. At ScaleDefault the 16 items
// hold about 8.9 MiB of inputs.

// inputKey names one seeded input.
type inputKey struct {
	gen  string
	size int
	seed uint32
}

// input is one cached seeded input. build is kept so a test can check data
// against a fresh run of its generator.
type input struct {
	once  sync.Once
	build func() []byte
	data  []byte
}

var (
	inputsMu sync.Mutex
	inputs   = map[inputKey]*input{}
)

// seeded returns the bytes gen builds for (size, seed), building them on the
// first call. The result is shared by every caller and must not be written.
func seeded(gen string, size int, seed uint32, build func(size int, seed uint32) []byte) []byte {
	k := inputKey{gen, size, seed}
	inputsMu.Lock()
	in := inputs[k]
	if in == nil {
		in = &input{build: func() []byte { return build(size, seed) }}
		inputs[k] = in
	}
	inputsMu.Unlock()
	in.once.Do(func() { in.data = in.build() })
	return in.data
}

// newArrayFrom allocates a Java array of kind holding data's elements.
func newArrayFrom(env *jni.Env, kind vm.Kind, data []byte) (*vm.Object, error) {
	n := len(data) / kind.Size()
	arr, err := env.NewArray(kind, n)
	if err != nil {
		return nil, err
	}
	if err := env.SetArrayRegion(kind, arr, 0, n, data); err != nil {
		return nil, err
	}
	return arr, nil
}

// intBytes encodes vals as the little-endian bytes of a Java int[].
func intBytes(vals []int32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[4*i:], uint32(v))
	}
	return out
}
