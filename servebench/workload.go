package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"mte4jni/internal/analysis"
	"mte4jni/internal/interp"
	"mte4jni/internal/workloads"
)

// Schemes in the paper's order, spelled as the /run API accepts them.
var schemeNames = [4]string{"none", "guarded", "sync", "async"}

const (
	schemeNone = iota
	schemeGuarded
	schemeSync
	schemeAsync
)

// conns is the number of closed-loop client connections. One connection
// keeps about one of the host's two CPUs busy. Two connections saturated
// both, and on a 2-vCPU virtual machine whose CPU speed drifts with its
// neighbours' load that tripled the run-to-run spread: over alternating
// 20-s runs, the jni-handout p50s spread by 0.14-0.19 of their median with
// two connections and by 0.06-0.07 with one (admission-churn: 0.22-0.23
// against 0.07-0.11; geekbench: about 0.1 either way).
const conns = 1

// connSchemes gives each connection the schemes it sends. A connection holds
// at most one lease at a time, so one pooled session per scheme serves the
// whole run and only its owning connection ever leases it: a quarantined
// session is rebuilt by that connection's next request of the scheme, which
// makes session builds equal MTE quarantines by construction.
var connSchemes = [conns][]int{{schemeNone, schemeGuarded, schemeSync, schemeAsync}}

// request is one POST /run the benchmark sends, with the outcome the
// request's scheme must produce.
type request struct {
	kind   int
	scheme int
	body   []byte
	// twin is the body the traced replay pushes through the handler's
	// decomposed calls. It equals body unless the workload's screens must
	// stay cold, in which case it is the same program under another name.
	twin []byte
	want outcome
	prog *programInfo
	item string // geekbench item, when the request runs one
}

// programInfo describes an inline program as its generator built it, so the
// traced run can replay its native calls and count its interpreter steps.
type programInfo struct {
	slots []int        // int-array length per reference slot
	calls []nativeCall // native calls in execution order
	steps int64        // dispatched instructions, from the loop bounds
}

// nativeCall is one materialized native: a store at minOff and at maxOff of
// the array in slot.
type nativeCall struct {
	slot           int
	minOff, maxOff int64
}

// outcome is what a request must come back with.
type outcome struct {
	status int
	ok     bool
	ret    int64
	fault  bool   // a structured MTE fault record
	errHas string // substring the managed error must contain
	rule   string // verdict rule of a 422
	cached bool   // the admission screen answers from its verdict cache
}

// workload is one seeded traffic mix.
type workload struct {
	name  string
	kinds []string
	// deck lists kind indices in the proportions the mix sends them; each
	// connection draws a seeded shuffle of it, deck after deck.
	deck []int
	// build makes a request of kind k for scheme; rng is the connection's
	// seeded stream and n a request index unique across connections.
	build func(k, scheme int, rng *rand.Rand, n int) request
}

// lookupWorkload returns the named mix, seeded.
func lookupWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "jni-handout":
		return jniHandout(seed), nil
	case "geekbench":
		return geekbench(), nil
	case "admission-churn":
		return admissionChurn(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (jni-handout, geekbench, admission-churn)", name)
}

// source draws one connection's request sequence. The sequence depends only
// on the workload, the seed and the connection.
type source struct {
	w       *workload
	conn    int
	rng     *rand.Rand
	deck    []int
	n       int
	perKind []int
}

func newSource(w *workload, seed int64, conn int) *source {
	return &source{
		w: w, conn: conn,
		rng:     rand.New(rand.NewSource(seed*1_000_003 + int64(conn)*7919 + 17)),
		perKind: make([]int, len(w.kinds)),
	}
}

// next returns the connection's next request. Each kind cycles through the
// connection's schemes one request at a time, so across the connections
// every kind cycles through all four schemes.
func (s *source) next() request {
	if len(s.deck) == 0 {
		s.deck = append(s.deck, s.w.deck...)
		s.rng.Shuffle(len(s.deck), func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
	}
	k := s.deck[0]
	s.deck = s.deck[1:]
	cs := connSchemes[s.conn]
	scheme := cs[s.perKind[k]%len(cs)]
	s.perKind[k]++
	r := s.w.build(k, scheme, s.rng, s.n*conns+s.conn)
	r.kind, r.scheme = k, scheme
	if r.twin == nil {
		r.twin = r.body
	}
	s.n++
	return r
}

func runBody(scheme int, fields map[string]any) []byte {
	fields["scheme"] = schemeNames[scheme]
	b, err := json.Marshal(fields)
	if err != nil {
		panic(err) // only fixed field types reach here
	}
	return b
}

func programBody(scheme int, p *analysis.Program) []byte {
	raw, err := analysis.MarshalProgram(p)
	if err != nil {
		panic(err) // generated programs always marshal
	}
	return runBody(scheme, map[string]any{"program": json.RawMessage(raw)})
}

// asm assembles a method while counting the steps straight-line code costs.
type asm struct {
	code    []interp.Inst
	natives map[string]analysis.NativeSummary
	names   []string
	info    programInfo
}

func newAsm() *asm { return &asm{natives: map[string]analysis.NativeSummary{}} }

func (a *asm) emit(op interp.Opcode, x, y int64) {
	a.code = append(a.code, interp.Inst{Op: op, A: x, B: y})
}

// array allocates an int array of length n into the next reference slot.
func (a *asm) array(n int) int {
	slot := len(a.info.slots)
	a.info.slots = append(a.info.slots, n)
	a.emit(interp.OpConst, int64(n), 0)
	a.emit(interp.OpNewArray, int64(slot), 0)
	return slot
}

// native declares a native storing one byte at minOff and at maxOff of its
// array argument, and returns its NativeNames index.
func (a *asm) native(name string, sum analysis.NativeSummary) int {
	a.names = append(a.names, name)
	a.natives[name] = sum
	return len(a.names) - 1
}

func (a *asm) program(name string, locals int) *analysis.Program {
	return &analysis.Program{
		Method: &interp.Method{
			Name: name, Code: a.code, MaxLocals: locals,
			MaxRefs: len(a.info.slots), NativeNames: a.names,
		},
		Natives: a.natives,
	}
}

// fig5Lengths are Figure 5's int-array lengths, 2^1 .. 2^12.
var fig5Lengths = func() []int {
	out := make([]int, 12)
	for i := range out {
		out[i] = 2 << i
	}
	return out
}()

// handoutRounds is how many times the jni-handout program walks all twelve
// lengths per request.
const handoutRounds = 16

// handoutProgram builds the jni-handout program: twelve int arrays of Fig 5's
// lengths, then a counted loop that hands each out to a native which stores
// its first and last byte and releases it. The seed picks the call order and
// the return value, never the amount of work.
func handoutProgram(seed int64) (*analysis.Program, *programInfo, int64) {
	rng := rand.New(rand.NewSource(seed))
	a := newAsm()
	for _, n := range fig5Lengths {
		a.array(n)
	}
	order := rng.Perm(len(fig5Lengths))
	natives := make([]int, len(order))
	for _, slot := range order {
		n := fig5Lengths[slot]
		natives[slot] = a.native(fmt.Sprintf("handout_%d", n), analysis.NativeSummary{
			MinOff: 0, MaxOff: int64(n*4 - 1), Write: true,
		})
	}
	ret := 1 + rng.Int63n(1_000_000)
	// local 0 counts rounds down.
	a.emit(interp.OpConst, handoutRounds, 0)
	a.emit(interp.OpStore, 0, 0)
	loop := int64(len(a.code))
	a.emit(interp.OpLoad, 0, 0)
	exit := len(a.code)
	a.emit(interp.OpJmpIfZero, 0, 0)
	for _, slot := range order {
		a.emit(interp.OpCallNative, int64(natives[slot]), int64(slot))
	}
	a.emit(interp.OpLoad, 0, 0)
	a.emit(interp.OpConst, 1, 0)
	a.emit(interp.OpSub, 0, 0)
	a.emit(interp.OpStore, 0, 0)
	a.emit(interp.OpJmp, loop, 0)
	a.code[exit].A = int64(len(a.code))
	a.emit(interp.OpConst, ret, 0)
	a.emit(interp.OpReturn, 0, 0)

	body := int64(exit + 1 - int(loop) + len(order) + 5) // load, jz, calls, load, const, sub, store, jmp
	info := a.info
	info.steps = int64(2*len(fig5Lengths)+2) + handoutRounds*body + 2 + 2
	for r := 0; r < handoutRounds; r++ {
		for _, slot := range order {
			info.calls = append(info.calls, nativeCall{slot: slot, minOff: 0, maxOff: int64(fig5Lengths[slot]*4 - 1)})
		}
	}
	return a.program("jni_handout", 1), &info, ret
}

func jniHandout(seed int64) *workload {
	p, info, ret := handoutProgram(seed)
	var body [len(schemeNames)][]byte
	for s := range body {
		body[s] = programBody(s, p)
	}
	return &workload{
		name:  "jni-handout",
		kinds: []string{"handout"},
		deck:  []int{0},
		build: func(_, scheme int, _ *rand.Rand, _ int) request {
			return request{body: body[scheme], prog: info, want: outcome{status: 200, ok: true, ret: ret, cached: true}}
		},
	}
}

func geekbench() *workload {
	w := &workload{name: "geekbench"}
	var bodies [][len(schemeNames)][]byte
	for i, it := range workloads.All(workloads.ScaleDefault) {
		w.kinds = append(w.kinds, it.Name())
		w.deck = append(w.deck, i)
		var b [len(schemeNames)][]byte
		for s := range b {
			b[s] = runBody(s, map[string]any{"workload": it.Name(), "scale": "default"})
		}
		bodies = append(bodies, b)
	}
	w.build = func(k, scheme int, _ *rand.Rand, _ int) request {
		return request{body: bodies[k][scheme], item: w.kinds[k], want: outcome{status: 200, ok: true, ret: 1}}
	}
	return w
}

// Admission-churn kinds.
const (
	churnStraight = iota
	churnLoop
	churnReject
	churnOOB
)

// churnDeck sets the admission-churn mix: per 96 requests, 42 straight-line
// programs, 41 counted-loop programs, 9 provably-faulting programs and four
// canned oob probes. Every other probe runs under an MTE scheme and
// quarantines its session, so about 2% of requests pay a session rebuild and
// p99 lies inside the rebuild cluster. With 0.5% rebuilds p99 sat in the tail
// of the ordinary sub-millisecond requests, where a few milliseconds of host
// steal decide it: on a 2-vCPU virtual machine it rose by 25-130% in the runs
// with 3-9% steal.
var churnDeck = func() []int {
	var d []int
	for k, n := range [...]int{churnStraight: 42, churnLoop: 41, churnReject: 9, churnOOB: 4} {
		for i := 0; i < n; i++ {
			d = append(d, k)
		}
	}
	return d
}()

// churnLengths are the small array lengths churn programs allocate.
var churnLengths = []int{4, 8, 12, 16, 24, 32, 48, 64}

func admissionChurn(seed int64) *workload {
	return &workload{
		name:  "admission-churn",
		kinds: []string{"straight", "loop", "reject", "oob"},
		deck:  churnDeck,
		build: func(k, scheme int, rng *rand.Rand, n int) request {
			name := fmt.Sprintf("churn_%d_%d", seed, n)
			switch k {
			case churnStraight, churnLoop:
				var (
					p   *analysis.Program
					pi  *programInfo
					ret int64
				)
				if k == churnStraight {
					p, pi, ret = straightProgram(rng, name)
				} else {
					p, pi, ret = loopProgram(rng, name)
				}
				r := request{body: programBody(scheme, p), prog: pi, want: outcome{status: 200, ok: true, ret: ret}}
				// The replay's screen must be as cold as the served one.
				p.Method.Name += "_t"
				r.twin = programBody(scheme, p)
				return r
			case churnReject:
				p := rejectProgram(rng, name)
				r := request{body: programBody(scheme, p), want: outcome{status: 422, rule: "BC-NATIVE-FAULT"}}
				p.Method.Name += "_t"
				r.twin = programBody(scheme, p)
				return r
			}
			return request{body: runBody(scheme, map[string]any{"canned": "oob"}), want: oobOutcome(scheme)}
		},
	}
}

// oobOutcome is the paper's semantics for the canned one-past-the-end store:
// unprotected it lands silently; guarded copy finds the corrupted canary when
// the buffer is released; MTE faults at the store and the session is
// quarantined.
func oobOutcome(scheme int) outcome {
	switch scheme {
	case schemeNone:
		return outcome{status: 200, ok: true, ret: 42}
	case schemeGuarded:
		return outcome{status: 200, errHas: "RuntimeException"}
	}
	return outcome{status: 200, fault: true}
}

// safeCall appends a native that stores inside an array of length n.
func safeCall(a *asm, rng *rand.Rand, slot, n int) {
	last := int64(n*4 - 1)
	lo := rng.Int63n(last + 1)
	hi := lo + rng.Int63n(last-lo+1)
	idx := a.native(fmt.Sprintf("n%d", len(a.names)), analysis.NativeSummary{MinOff: lo, MaxOff: hi, Write: true})
	a.emit(interp.OpCallNative, int64(idx), int64(slot))
	a.info.calls = append(a.info.calls, nativeCall{slot: slot, minOff: lo, maxOff: hi})
}

// straightProgram: one or two arrays, a safe native call on each, then an
// arithmetic chain over seeded constants whose value the program returns.
func straightProgram(rng *rand.Rand, name string) (*analysis.Program, *programInfo, int64) {
	a := newAsm()
	arrays := 1 + rng.Intn(2)
	for i := 0; i < arrays; i++ {
		n := churnLengths[rng.Intn(len(churnLengths))]
		slot := a.array(n)
		safeCall(a, rng, slot, n)
	}
	v := 1 + rng.Int63n(1000)
	a.emit(interp.OpConst, v, 0)
	for i, ops := 0, 3+rng.Intn(4); i < ops; i++ {
		c := 1 + rng.Int63n(97)
		a.emit(interp.OpConst, c, 0)
		if rng.Intn(2) == 0 {
			a.emit(interp.OpAdd, 0, 0)
			v += c
		} else {
			a.emit(interp.OpMul, 0, 0)
			a.emit(interp.OpConst, 1_000_003, 0)
			a.emit(interp.OpRem, 0, 0)
			v = v * c % 1_000_003
		}
	}
	a.emit(interp.OpReturn, 0, 0)
	a.info.steps = int64(len(a.code))
	info := a.info
	return a.program(name, 0), &info, v
}

// loopProgram: one array and one to three sequential counted loops; each
// iteration hands the array to a safe native and adds a seeded constant to
// the accumulator the program returns.
func loopProgram(rng *rand.Rand, name string) (*analysis.Program, *programInfo, int64) {
	a := newAsm()
	n := churnLengths[rng.Intn(len(churnLengths))]
	slot := a.array(n)
	a.emit(interp.OpConst, 0, 0)
	a.emit(interp.OpStore, 0, 0) // local 0: accumulator
	steps := int64(4)
	var sum int64
	for l, loops := 0, 1+rng.Intn(3); l < loops; l++ {
		iters := 2 + rng.Int63n(7)
		c := 1 + rng.Int63n(50)
		sum += iters * c
		a.emit(interp.OpConst, iters, 0)
		a.emit(interp.OpStore, 1, 0) // local 1: counter
		head := int64(len(a.code))
		a.emit(interp.OpLoad, 1, 0)
		exit := len(a.code)
		a.emit(interp.OpJmpIfZero, 0, 0)
		calls := len(a.info.calls)
		safeCall(a, rng, slot, n)
		call := a.info.calls[calls]
		for i := int64(1); i < iters; i++ {
			a.info.calls = append(a.info.calls, call)
		}
		a.emit(interp.OpLoad, 0, 0)
		a.emit(interp.OpConst, c, 0)
		a.emit(interp.OpAdd, 0, 0)
		a.emit(interp.OpStore, 0, 0)
		a.emit(interp.OpLoad, 1, 0)
		a.emit(interp.OpConst, 1, 0)
		a.emit(interp.OpSub, 0, 0)
		a.emit(interp.OpStore, 1, 0)
		a.emit(interp.OpJmp, head, 0)
		a.code[exit].A = int64(len(a.code))
		body := int64(len(a.code)) - head
		steps += 2 + iters*body + 2 // counter init, iterations, final load+jz
	}
	a.emit(interp.OpLoad, 0, 0)
	a.emit(interp.OpReturn, 0, 0)
	a.info.steps = steps + 2
	info := a.info
	return a.program(name, 2), &info, sum
}

// rejectProgram is provably faulting in one of the three illicit-access
// classes the screen proves: a store into the neighbour granule, a store
// through the pointer after release, or a store through a forged tag.
func rejectProgram(rng *rand.Rand, name string) *analysis.Program {
	a := newAsm()
	n := churnLengths[rng.Intn(len(churnLengths))]
	slot := a.array(n)
	last := int64(n*4 - 1)
	var sum analysis.NativeSummary
	switch rng.Intn(3) {
	case 0:
		off := (last + 16) &^ 15 // first byte of the next granule
		sum = analysis.NativeSummary{MinOff: off, MaxOff: off, Write: true}
	case 1:
		sum = analysis.NativeSummary{MinOff: 0, MaxOff: last, Write: true, UseAfterRelease: true}
	default:
		sum = analysis.NativeSummary{MinOff: 0, MaxOff: last, Write: true, ForgeTag: true}
	}
	idx := a.native("bad", sum)
	a.emit(interp.OpCallNative, int64(idx), int64(slot))
	a.emit(interp.OpConst, 1+rng.Int63n(1000), 0)
	a.emit(interp.OpReturn, 0, 0)
	return a.program(name, 0)
}
