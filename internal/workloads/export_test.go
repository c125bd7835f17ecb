package workloads

import (
	"bytes"
	"fmt"
)

// CheckInputs rebuilds every cached seeded input with its generator and
// returns how many it checked, or an error naming the first whose cached
// bytes no longer match.
func CheckInputs() (int, error) {
	inputsMu.Lock()
	all := make(map[inputKey]*input, len(inputs))
	for k, in := range inputs {
		all[k] = in
	}
	inputsMu.Unlock()
	for k, in := range all {
		in.once.Do(func() { in.data = in.build() })
		if !bytes.Equal(in.build(), in.data) {
			return 0, fmt.Errorf("cached input %s (size %d, seed %#x) was written", k.gen, k.size, k.seed)
		}
	}
	return len(all), nil
}
