package workloads

import (
	"fmt"

	"mte4jni/internal/jni"
	"mte4jni/internal/vm"
)

// FileCompression stands in for GB6 "File Compression": an LZ77-style
// compressor with a 4 KiB sliding window run over a synthetic text corpus
// held in a Java byte[]. Bulk pattern: the corpus is pulled across JNI
// once, compressed natively, and the compressed size is recorded.
type FileCompression struct {
	size  int
	input *vm.Object
	ratio float64
}

// NewFileCompression builds the workload at the given scale.
func NewFileCompression(s Scale) *FileCompression {
	size := 1 << 20
	if s == ScaleSmall {
		size = 16 << 10
	}
	return &FileCompression{size: size}
}

// Name implements Workload.
func (w *FileCompression) Name() string { return "File Compression" }

// Pattern implements Workload.
func (w *FileCompression) Pattern() Pattern { return Bulk }

// Setup implements Workload: a compressible corpus.
func (w *FileCompression) Setup(env *jni.Env) error {
	arr, err := newArrayFrom(env, vm.KindByte, seeded("corpus", w.size, 0xC0FFEE, corpusBytes))
	w.input = arr
	return err
}

// corpusBytes synthesizes size bytes of text drawn from a small vocabulary.
func corpusBytes(size int, seed uint32) []byte {
	words := []string{"the ", "quick ", "brown ", "fox ", "jumps ", "over ", "lazy ", "dog ", "memory ", "tagging "}
	data := make([]byte, size)
	rng := xorshift32(seed)
	for pos := 0; pos < size; {
		pos += copy(data[pos:], words[rng.next()%uint32(len(words))])
	}
	return data
}

// lz77Compress compresses src with a hash-chained LZ77 and returns the
// output length.
func lz77Compress(src []byte) int {
	const window = 4096
	const minMatch = 4
	head := make(map[uint32]int, len(src)/4)
	outLen := 0
	hash := func(i int) uint32 {
		return uint32(src[i]) | uint32(src[i+1])<<8 | uint32(src[i+2])<<16 | uint32(src[i+3])<<24
	}
	i := 0
	for i+minMatch <= len(src) {
		h := hash(i)
		cand, ok := head[h]
		head[h] = i
		if ok && i-cand <= window && cand+minMatch <= len(src) {
			// Extend the match.
			length := 0
			for i+length < len(src) && src[cand+length] == src[i+length] && length < 255 {
				length++
			}
			if length >= minMatch {
				outLen += 3 // (distance, length) token
				i += length
				continue
			}
		}
		outLen++ // literal
		i++
	}
	outLen += len(src) - i
	return outLen
}

// Run implements Workload.
func (w *FileCompression) Run(env *jni.Env) error {
	data, err := acquireBytes(env, w.input)
	if err != nil {
		return err
	}
	if err := checkpoint(env); err != nil {
		return err
	}
	out := lz77Compress(data)
	w.ratio = float64(out) / float64(len(data))
	return nil
}

// Verify implements Workload: the synthetic corpus is highly compressible.
func (w *FileCompression) Verify() error {
	if w.ratio <= 0 || w.ratio > 0.8 {
		return fmt.Errorf("File Compression: implausible ratio %.3f", w.ratio)
	}
	return nil
}

// AssetCompression stands in for GB6 "Asset Compression": delta encoding
// plus run-length compression of quantized mesh vertex data held in a Java
// int[]. Bulk pattern.
type AssetCompression struct {
	verts  int
	mesh   *vm.Object
	outLen int
}

// NewAssetCompression builds the workload at the given scale.
func NewAssetCompression(s Scale) *AssetCompression {
	verts := 1 << 18
	if s == ScaleSmall {
		verts = 1 << 12
	}
	return &AssetCompression{verts: verts}
}

// Name implements Workload.
func (w *AssetCompression) Name() string { return "Asset Compression" }

// Pattern implements Workload.
func (w *AssetCompression) Pattern() Pattern { return Bulk }

// Setup implements Workload: smooth vertex positions, which delta-encode
// well.
func (w *AssetCompression) Setup(env *jni.Env) error {
	arr, err := newArrayFrom(env, vm.KindInt, seeded("mesh", w.verts, 0xA55E7, meshBytes))
	w.mesh = arr
	return err
}

// meshBytes synthesizes verts positions, each a small jitter away from the
// last: a smooth surface.
func meshBytes(verts int, seed uint32) []byte {
	vals := make([]int32, verts)
	rng := xorshift32(seed)
	v := int32(1 << 20)
	for i := range vals {
		v += int32(rng.next()%17) - 8
		vals[i] = v
	}
	return intBytes(vals)
}

// Run implements Workload.
func (w *AssetCompression) Run(env *jni.Env) error {
	vals, err := acquireInts(env, w.mesh)
	if err != nil {
		return err
	}
	if err := checkpoint(env); err != nil {
		return err
	}
	// Delta encode.
	deltas := make([]int32, len(vals))
	prev := int32(0)
	for i, v := range vals {
		deltas[i] = v - prev
		prev = v
	}
	// Byte-oriented RLE over the low bytes of the deltas.
	out := 0
	run := 0
	var last byte
	for i, d := range deltas {
		b := byte(d)
		if i > 0 && b == last && run < 255 {
			run++
			continue
		}
		out += 2 // (value, runlen)
		last, run = b, 1
	}
	out += 2
	w.outLen = out
	return nil
}

// Verify implements Workload: smooth data must shrink.
func (w *AssetCompression) Verify() error {
	if w.outLen <= 0 || w.outLen >= w.verts*4 {
		return fmt.Errorf("Asset Compression: implausible output %d for %d ints", w.outLen, w.verts)
	}
	return nil
}
