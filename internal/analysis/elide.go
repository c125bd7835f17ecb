package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"

	"mte4jni/internal/interp"
)

// The proof compiler: Screen no longer throws its per-site verdicts away
// after the admit/reject decision. Every reachable heap-access instruction
// whose guard is statically discharged — a native call site with
// VerdictSafe, an array access whose index interval is proven inside the
// array's length interval — is compiled into an Elision: an
// interp.ElisionMask (bitset over PCs) plus one ElisionProof per elided PC
// recording exactly the facts the verdict depended on, sealed under two
// digests.
//
// The program digest binds the proofs to the program text (code, layout,
// native names *and summaries*): ValidateBinding recomputes it at pool bind
// time, so a native summary that changed between screening and execution —
// the "summary mismatch" invalidation rule — drops the whole mask in one
// hash compare. The proof digest fingerprints the proofs themselves for
// reports and the fuzz witness.
//
// The facts a proof records are exactly what the dynamic witness re-checks:
// for a call site, that every traced access stays inside the tag-rounded
// payload the summary promised; for an array access, that every executed
// index the elided guard skipped was in bounds.

// ElisionProof records the static facts one elided PC's verdict rests on.
type ElisionProof struct {
	// PC is the elided instruction.
	PC int `json:"pc"`
	// Op is the instruction kind ("callnative", "aget", "aput").
	Op string `json:"op"`
	// Reason is the verdict's one-clause justification.
	Reason string `json:"reason"`

	// Call-site facts: the summary offsets the safe verdict assumed, and
	// whether it assumed the native touches the heap at all.
	Native  string `json:"native,omitempty"`
	Touches bool   `json:"touches,omitempty"`
	MinOff  int64  `json:"minOffset,omitempty"`
	MaxOff  int64  `json:"maxOffset,omitempty"`
	// WindowSafe records the discharged window-safety obligation for a call
	// site: the temporal domain classified the acquire/release window clean
	// (no interfering write can precede the check that would observe it).
	// Sites with a non-clean exposure never get a proof at all — the
	// obligation is part of what "elidable" means since the temporal pass.
	WindowSafe bool `json:"windowSafe,omitempty"`

	// Array-access facts: the index interval and the length lower bound the
	// in-bounds proof used.
	IdxLo int64 `json:"idxLo,omitempty"`
	IdxHi int64 `json:"idxHi,omitempty"`
	LenLo int64 `json:"lenLo,omitempty"`
}

// Elision is a compiled, digest-sealed elision mask for one program.
type Elision struct {
	mask          *interp.ElisionMask
	proofs        []ElisionProof
	programDigest [sha256.Size]byte
	proofDigest   [sha256.Size]byte
}

// Mask returns the PC bitset the interpreter binds.
func (el *Elision) Mask() *interp.ElisionMask { return el.mask }

// Sites returns the number of elided PCs.
func (el *Elision) Sites() int { return el.mask.Sites() }

// Proofs returns the per-PC proof records in PC order.
func (el *Elision) Proofs() []ElisionProof { return el.proofs }

// Proof returns the proof for one elided PC, or nil.
func (el *Elision) Proof(pc int) *ElisionProof {
	for i := range el.proofs {
		if el.proofs[i].PC == pc {
			return &el.proofs[i]
		}
	}
	return nil
}

// ValidateBinding checks that p is byte-for-byte the program these proofs
// were compiled from — same code, same layout, same native summaries. A
// mismatch (e.g. a summary rebound between screening and execution) means
// the proofs prove nothing about p and the mask must not arm.
func (el *Elision) ValidateBinding(p *Program) error {
	if got := programDigest(p); got != el.programDigest {
		return fmt.Errorf("analysis: elision proofs compiled for program %s, bound to %s",
			hex.EncodeToString(el.programDigest[:8]), hex.EncodeToString(got[:8]))
	}
	return nil
}

// programDigest hashes the canonical program text: method layout, every
// instruction, and the native summaries sorted by name. The text is built
// with strconv appends into one buffer rather than per-line Fprintf — the
// digest seals every screened program (compileElision runs on every
// Analyze) and rendering was the hottest part of a cold screen. The byte
// stream is unchanged: %q is strconv.AppendQuote, %d/%t are AppendInt and
// AppendBool.
func programDigest(p *Program) [sha256.Size]byte {
	buf := make([]byte, 0, 64*(1+len(p.Method.NativeNames)+len(p.Method.Code)+len(p.Natives)))
	buf = append(buf, "method "...)
	buf = strconv.AppendQuote(buf, p.Method.Name)
	buf = append(buf, " locals="...)
	buf = strconv.AppendInt(buf, int64(p.Method.MaxLocals), 10)
	buf = append(buf, " refs="...)
	buf = strconv.AppendInt(buf, int64(p.Method.MaxRefs), 10)
	buf = append(buf, '\n')
	for _, name := range p.Method.NativeNames {
		buf = append(buf, "link "...)
		buf = strconv.AppendQuote(buf, name)
		buf = append(buf, '\n')
	}
	for pc, in := range p.Method.Code {
		buf = strconv.AppendInt(buf, int64(pc), 10)
		buf = append(buf, ':', ' ')
		buf = strconv.AppendInt(buf, int64(in.Op), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, in.A, 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, in.B, 10)
		buf = append(buf, '\n')
	}
	names := make([]string, 0, len(p.Natives))
	for name := range p.Natives {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := p.Natives[name]
		buf = append(buf, "native "...)
		buf = strconv.AppendQuote(buf, name)
		buf = append(buf, " kind="...)
		buf = strconv.AppendInt(buf, int64(s.Kind), 10)
		buf = append(buf, " off=["...)
		buf = strconv.AppendInt(buf, s.MinOff, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, s.MaxOff, 10)
		buf = append(buf, "] w="...)
		buf = strconv.AppendBool(buf, s.Write)
		buf = append(buf, " uar="...)
		buf = strconv.AppendBool(buf, s.UseAfterRelease)
		buf = append(buf, " forge="...)
		buf = strconv.AppendBool(buf, s.ForgeTag)
		buf = append(buf, " dmg="...)
		buf = strconv.AppendInt(buf, int64(s.DamageOps), 10)
		buf = append(buf, " scan="...)
		buf = strconv.AppendBool(buf, s.ConcurrentScan)
		buf = append(buf, " race="...)
		buf = strconv.AppendBool(buf, s.ManagedRace)
		buf = append(buf, '\n')
	}
	return sha256.Sum256(buf)
}

// compileElision seals the reporting phase's elided PCs and proofs into an
// Elision for the program. Proofs arrive in the phase-2 PC scan order, i.e.
// already sorted by PC.
func compileElision(p *Program, proofs []ElisionProof) *Elision {
	pcs := make([]int, len(proofs))
	for i, pr := range proofs {
		pcs[i] = pr.PC
	}
	el := &Elision{
		mask:          interp.NewElisionMask(len(p.Method.Code), pcs),
		proofs:        proofs,
		programDigest: programDigest(p),
	}
	buf := make([]byte, 0, 96*len(proofs))
	for _, pr := range proofs {
		buf = strconv.AppendInt(buf, int64(pr.PC), 10)
		buf = append(buf, ' ')
		buf = append(buf, pr.Op...)
		buf = append(buf, ' ')
		buf = strconv.AppendQuote(buf, pr.Reason)
		buf = append(buf, ' ')
		buf = strconv.AppendQuote(buf, pr.Native)
		buf = append(buf, ' ')
		buf = strconv.AppendBool(buf, pr.Touches)
		buf = append(buf, ' ')
		buf = strconv.AppendBool(buf, pr.WindowSafe)
		buf = append(buf, " ["...)
		buf = strconv.AppendInt(buf, pr.MinOff, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, pr.MaxOff, 10)
		buf = append(buf, "] ["...)
		buf = strconv.AppendInt(buf, pr.IdxLo, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, pr.IdxHi, 10)
		buf = append(buf, "] "...)
		buf = strconv.AppendInt(buf, pr.LenLo, 10)
		buf = append(buf, '\n')
	}
	el.proofDigest = sha256.Sum256(buf)
	return el
}

// ElideAnnotations returns per-PC disassembly notes for every heap-access
// instruction: "elide: <reason>" when the proof compiler discharged its
// guard, "checked: <reason>" otherwise — the human-auditable rendering of
// the compiler's output for `mte4jni lint -disasm`.
func ElideAnnotations(res *MethodResult) map[int][]string {
	notes := make(map[int][]string)
	siteReason := make(map[int]string, len(res.CallSites))
	for _, s := range res.CallSites {
		siteReason[s.PC] = s.Reason
	}
	for pc, in := range res.Method.Code {
		switch in.Op {
		case interp.OpArrayGet, interp.OpArrayPut, interp.OpCallNative:
		default:
			continue
		}
		if pc < len(res.Reachable) && !res.Reachable[pc] {
			continue // already annotated "unreachable" by the diagnostics
		}
		if res.Elision != nil {
			if pr := res.Elision.Proof(pc); pr != nil {
				notes[pc] = append(notes[pc], "elide: "+pr.Reason)
				continue
			}
		}
		reason := "guard not statically discharged"
		if r, ok := siteReason[pc]; ok && r != "" {
			reason = r
		}
		notes[pc] = append(notes[pc], "checked: "+reason)
	}
	return notes
}
