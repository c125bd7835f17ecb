package workloads

import (
	"fmt"
	"math"

	"mte4jni/internal/jni"
	"mte4jni/internal/vm"
)

// Navigation stands in for GB6 "Navigation": Dijkstra shortest paths over a
// random road network stored in Java int arrays (CSR adjacency). Bulk
// pattern: the graph crosses JNI once per run, route computation is native.
type Navigation struct {
	nodes   int
	offsets *vm.Object // int[nodes+1]
	edges   *vm.Object // int[] pairs (dst, weight) flattened
	dist    int64
	reached int
}

// navDegree is each node's out-degree: one ring edge plus random chords.
const navDegree = 4

// NewNavigation builds the workload at the given scale.
func NewNavigation(s Scale) *Navigation {
	nodes := 20000
	if s == ScaleSmall {
		nodes = 800
	}
	return &Navigation{nodes: nodes}
}

// Name implements Workload.
func (w *Navigation) Name() string { return "Navigation" }

// Pattern implements Workload.
func (w *Navigation) Pattern() Pattern { return Bulk }

// Setup implements Workload: a ring + random chords road network.
func (w *Navigation) Setup(env *jni.Env) error {
	data := seeded("roads", w.nodes, 0x4A71, roadBytes)
	split := 4 * (w.nodes + 1)
	var err error
	if w.offsets, err = newArrayFrom(env, vm.KindInt, data[:split]); err != nil {
		return err
	}
	w.edges, err = newArrayFrom(env, vm.KindInt, data[split:])
	return err
}

// roadBytes builds an n-node network in CSR form: the n+1 offsets followed
// by the flattened (dst, weight) edge pairs, navDegree per node.
func roadBytes(n int, seed uint32) []byte {
	offsets := make([]int32, n+1)
	edges := make([]int32, 0, n*navDegree*2)
	rng := xorshift32(seed)
	for v := 0; v < n; v++ {
		offsets[v] = int32(len(edges) / 2)
		// Ring edges keep the graph connected.
		edges = append(edges, int32((v+1)%n), int32(rng.next()%20+1))
		for d := 1; d < navDegree; d++ {
			edges = append(edges, int32(rng.next()%uint32(n)), int32(rng.next()%100+1))
		}
	}
	offsets[n] = int32(len(edges) / 2)
	return intBytes(append(offsets, edges...))
}

// Run implements Workload: Dijkstra with a binary heap.
func (w *Navigation) Run(env *jni.Env) error {
	offsets, err := acquireInts(env, w.offsets)
	if err != nil {
		return err
	}
	edges, err := acquireInts(env, w.edges)
	if err != nil {
		return err
	}
	n := w.nodes
	const inf = math.MaxInt32
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = inf
	}
	dist[0] = 0
	// Binary heap of (dist, node) encoded as int64.
	heap := []int64{0}
	push := func(d int32, v int) {
		heap = append(heap, int64(d)<<32|int64(v))
		for i := len(heap) - 1; i > 0; {
			parent := (i - 1) / 2
			if heap[parent] <= heap[i] {
				break
			}
			heap[parent], heap[i] = heap[i], heap[parent]
			i = parent
		}
	}
	pop := func() (int32, int) {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < last && heap[l] < heap[small] {
				small = l
			}
			if r < last && heap[r] < heap[small] {
				small = r
			}
			if small == i {
				break
			}
			heap[i], heap[small] = heap[small], heap[i]
			i = small
		}
		return int32(top >> 32), int(top & 0xFFFFFFFF)
	}
	for len(heap) > 0 {
		d, v := pop()
		if d > dist[v] {
			continue
		}
		for e := offsets[v]; e < offsets[v+1]; e++ {
			dst, wgt := edges[2*e], edges[2*e+1]
			if nd := d + wgt; nd < dist[dst] {
				dist[dst] = nd
				push(nd, int(dst))
			}
		}
	}
	var total int64
	reached := 0
	for _, d := range dist {
		if d != inf {
			total += int64(d)
			reached++
		}
	}
	w.dist, w.reached = total, reached
	return nil
}

// Verify implements Workload: the ring guarantees full reachability.
func (w *Navigation) Verify() error {
	if w.reached != w.nodes {
		return fmt.Errorf("Navigation: reached %d of %d nodes", w.reached, w.nodes)
	}
	if w.dist <= 0 {
		return fmt.Errorf("Navigation: zero total distance")
	}
	return nil
}

// RayTracer stands in for GB6 "Ray Tracer": path-free Whitted-style
// rendering of a sphere scene into a Java int[] framebuffer. Bulk pattern:
// heavy native float compute, one bulk publish at the end.
type RayTracer struct {
	dim    int
	fb     *vm.Object
	hits   int
	bright int64
}

// NewRayTracer builds the workload at the given scale.
func NewRayTracer(s Scale) *RayTracer {
	dim := 192
	if s == ScaleSmall {
		dim = 48
	}
	return &RayTracer{dim: dim}
}

// Name implements Workload.
func (w *RayTracer) Name() string { return "Ray Tracer" }

// Pattern implements Workload.
func (w *RayTracer) Pattern() Pattern { return Bulk }

// Setup implements Workload.
func (w *RayTracer) Setup(env *jni.Env) error {
	fb, err := env.NewArray(vm.KindInt, w.dim*w.dim)
	w.fb = fb
	return err
}

// vec3 is a small value-type vector for the tracer.
type vec3 struct{ x, y, z float64 }

func (a vec3) add(b vec3) vec3     { return vec3{a.x + b.x, a.y + b.y, a.z + b.z} }
func (a vec3) sub(b vec3) vec3     { return vec3{a.x - b.x, a.y - b.y, a.z - b.z} }
func (a vec3) mul(s float64) vec3  { return vec3{a.x * s, a.y * s, a.z * s} }
func (a vec3) dot(b vec3) float64  { return a.x*b.x + a.y*b.y + a.z*b.z }
func (a vec3) norm() vec3          { return a.mul(1 / math.Sqrt(a.dot(a))) }
func (a vec3) reflect(n vec3) vec3 { return a.sub(n.mul(2 * a.dot(n))) }
func clamp01(x float64) float64    { return math.Max(0, math.Min(1, x)) }
func toByte(x float64) uint32      { return uint32(clamp01(x) * 255) }

// sphere is one scene object.
type sphere struct {
	center vec3
	radius float64
	color  vec3
	mirror float64
}

// intersect returns the ray parameter of the nearest hit, or +Inf.
func (s sphere) intersect(o, d vec3) float64 {
	oc := o.sub(s.center)
	b := oc.dot(d)
	c := oc.dot(oc) - s.radius*s.radius
	disc := b*b - c
	if disc < 0 {
		return math.Inf(1)
	}
	t := -b - math.Sqrt(disc)
	if t > 1e-4 {
		return t
	}
	t = -b + math.Sqrt(disc)
	if t > 1e-4 {
		return t
	}
	return math.Inf(1)
}

// Run implements Workload.
func (w *RayTracer) Run(env *jni.Env) error {
	scene := []sphere{
		{vec3{0, -1000, 20}, 998.5, vec3{0.6, 0.6, 0.6}, 0}, // floor
		{vec3{-2, 0.5, 16}, 1.5, vec3{0.9, 0.2, 0.2}, 0.3},  // red
		{vec3{1.5, 0, 14}, 1.0, vec3{0.2, 0.4, 0.9}, 0.6},   // blue mirror
		{vec3{0, 1.8, 19}, 1.2, vec3{0.2, 0.9, 0.3}, 0},     // green
	}
	light := vec3{-10, 20, 5}
	dim := w.dim
	fb := make([]int32, dim*dim)
	hits := 0
	var bright int64

	var trace func(o, d vec3, depth int) vec3
	trace = func(o, d vec3, depth int) vec3 {
		best, bi := math.Inf(1), -1
		for i, s := range scene {
			if t := s.intersect(o, d); t < best {
				best, bi = t, i
			}
		}
		if bi < 0 {
			return vec3{0.2, 0.3, 0.5} // sky
		}
		s := scene[bi]
		hit := o.add(d.mul(best))
		n := hit.sub(s.center).norm()
		toLight := light.sub(hit).norm()
		// Shadow ray.
		shade := clamp01(n.dot(toLight))
		for i, other := range scene {
			if i == bi {
				continue
			}
			if !math.IsInf(other.intersect(hit, toLight), 1) {
				shade *= 0.2
				break
			}
		}
		col := s.color.mul(0.15 + 0.85*shade)
		if s.mirror > 0 && depth < 3 {
			refl := trace(hit, d.reflect(n).norm(), depth+1)
			col = col.mul(1 - s.mirror).add(refl.mul(s.mirror))
		}
		return col
	}

	for y := 0; y < dim; y++ {
		if err := checkpoint(env); err != nil {
			return err
		}
		for x := 0; x < dim; x++ {
			d := vec3{
				(float64(x) - float64(dim)/2) / float64(dim),
				(float64(dim)/2 - float64(y)) / float64(dim),
				1,
			}.norm()
			col := trace(vec3{0, 1, 0}, d, 0)
			px := 0xFF<<24 | toByte(col.x)<<16 | toByte(col.y)<<8 | toByte(col.z)
			fb[y*dim+x] = int32(px)
			if col.x+col.y+col.z > 0.05 {
				hits++
			}
			bright += int64(toByte(col.x))
		}
	}
	w.hits, w.bright = hits, bright
	return publishInts(env, w.fb, fb)
}

// Verify implements Workload.
func (w *RayTracer) Verify() error {
	if w.hits < w.dim*w.dim/2 {
		return fmt.Errorf("Ray Tracer: only %d lit pixels", w.hits)
	}
	return nil
}

// StructureFromMotion stands in for GB6 "Structure from Motion": feature
// matching between two synthetic views plus a least-squares translation
// estimate. Bulk pattern over two int[] descriptor arrays.
type StructureFromMotion struct {
	features int
	viewA    *vm.Object
	viewB    *vm.Object
	shiftX   float64
	shiftY   float64
	matches  int
}

// NewStructureFromMotion builds the workload at the given scale.
func NewStructureFromMotion(s Scale) *StructureFromMotion {
	features := 3000
	if s == ScaleSmall {
		features = 300
	}
	return &StructureFromMotion{features: features}
}

// Name implements Workload.
func (w *StructureFromMotion) Name() string { return "Structure from Motion" }

// Pattern implements Workload.
func (w *StructureFromMotion) Pattern() Pattern { return Bulk }

// Setup implements Workload: view B is view A shifted by (7, -3) with
// noisy descriptors.
func (w *StructureFromMotion) Setup(env *jni.Env) error {
	data := seeded("views", w.features, 0x5F0B, viewBytes)
	half := len(data) / 2
	var err error
	if w.viewA, err = newArrayFrom(env, vm.KindInt, data[:half]); err != nil {
		return err
	}
	w.viewB, err = newArrayFrom(env, vm.KindInt, data[half:])
	return err
}

// viewBytes builds n features per view, view A's followed by view B's. Each
// feature is (x, y, desc0..desc5).
func viewBytes(n int, seed uint32) []byte {
	const stride = 8
	a := make([]int32, n*stride)
	b := make([]int32, n*stride)
	rng := xorshift32(seed)
	for i := 0; i < n; i++ {
		x, y := int32(rng.next()%2000), int32(rng.next()%2000)
		a[i*stride], a[i*stride+1] = x, y
		b[i*stride], b[i*stride+1] = x+7, y-3
		for d := 2; d < stride; d++ {
			v := int32(rng.next() % 256)
			a[i*stride+d] = v
			b[i*stride+d] = v + int32(rng.next()%3) - 1 // descriptor noise
		}
	}
	return intBytes(append(a, b...))
}

// Run implements Workload: nearest-descriptor matching via bucket hashing,
// then mean shift estimation.
func (w *StructureFromMotion) Run(env *jni.Env) error {
	const stride = 8
	a, err := acquireInts(env, w.viewA)
	if err != nil {
		return err
	}
	b, err := acquireInts(env, w.viewB)
	if err != nil {
		return err
	}
	n := w.features
	// Bucket B's features by a coarse descriptor hash.
	buckets := make(map[uint32][]int, n)
	descHash := func(f []int32) uint32 {
		var h uint32
		for d := 2; d < stride; d++ {
			h = h*131 + uint32(f[d]>>3) // quantized: tolerate noise
		}
		return h
	}
	for j := 0; j < n; j++ {
		h := descHash(b[j*stride:])
		buckets[h] = append(buckets[h], j)
	}
	var sumX, sumY float64
	matches := 0
	for i := 0; i < n; i++ {
		fa := a[i*stride:]
		best, bestD := -1, int64(math.MaxInt64)
		for _, j := range buckets[descHash(fa)] {
			fb := b[j*stride:]
			var d2 int64
			for d := 2; d < stride; d++ {
				diff := int64(fa[d] - fb[d])
				d2 += diff * diff
			}
			if d2 < bestD {
				best, bestD = j, d2
			}
		}
		if best >= 0 && bestD < 100 {
			sumX += float64(b[best*stride] - fa[0])
			sumY += float64(b[best*stride+1] - fa[1])
			matches++
		}
	}
	if matches > 0 {
		w.shiftX, w.shiftY = sumX/float64(matches), sumY/float64(matches)
	}
	w.matches = matches
	return nil
}

// Verify implements Workload: the recovered shift must be close to (7,-3).
func (w *StructureFromMotion) Verify() error {
	if w.matches < w.features/4 {
		return fmt.Errorf("Structure from Motion: only %d matches", w.matches)
	}
	if math.Abs(w.shiftX-7) > 1.5 || math.Abs(w.shiftY+3) > 1.5 {
		return fmt.Errorf("Structure from Motion: recovered shift (%.1f, %.1f), want (7, -3)", w.shiftX, w.shiftY)
	}
	return nil
}
