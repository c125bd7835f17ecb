package mem

import (
	"fmt"
	"testing"

	"mte4jni/internal/cpu"
	"mte4jni/internal/mte"
)

// benchSpace builds a space with a tagged and an untagged mapping, a context
// in the given mode with checking live, and a tagged pointer to the start of
// the tagged mapping whose granules all carry the matching tag.
func benchSpace(b *testing.B, mode mte.CheckMode) (*Space, *cpu.Context, mte.Ptr) {
	b.Helper()
	s := NewSpace()
	m, err := s.Map("bench tagged", 1<<20, ProtRead|ProtWrite|ProtMTE)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Map("bench untagged", 1<<20, ProtRead|ProtWrite); err != nil {
		b.Fatal(err)
	}
	const tag = mte.Tag(0x5)
	if _, err := m.SetTagRange(m.Base(), m.End(), tag); err != nil {
		b.Fatal(err)
	}
	ctx := cpu.New("bench", mode)
	ctx.SetTCO(false)
	return s, ctx, mte.MakePtr(m.Base(), tag)
}

// BenchmarkLoad64Checked measures the per-access cost of a checked 64-bit
// load with tag checking live — the reproduction's stand-in for the
// hardware's in-pipeline tag check.
func BenchmarkLoad64Checked(b *testing.B) {
	s, ctx, p := benchSpace(b, mte.TCFSync)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, f := s.Load64(ctx, p.Add(int64(i%1024)*8)); f != nil {
			b.Fatal(f)
		}
	}
}

// BenchmarkLoad64Unguarded measures the same access with the SWAR tag
// compare elided: the per-access cost a discharged elision proof buys back.
func BenchmarkLoad64Unguarded(b *testing.B) {
	s, ctx, p := benchSpace(b, mte.TCFSync)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, f := s.Load64Unguarded(ctx, p.Add(int64(i%1024)*8)); f != nil {
			b.Fatal(f)
		}
	}
}

// BenchmarkLoad64Unchecked measures the same access with checking disabled
// (TCO set), the managed-code configuration.
func BenchmarkLoad64Unchecked(b *testing.B) {
	s, ctx, p := benchSpace(b, mte.TCFSync)
	ctx.SetTCO(true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, f := s.Load64(ctx, p.Add(int64(i%1024)*8)); f != nil {
			b.Fatal(f)
		}
	}
}

// BenchmarkCopyOutChecked measures bulk checked reads across many granules —
// the span path of the Fig5 copy workload.
func BenchmarkCopyOutChecked(b *testing.B) {
	for _, n := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s, ctx, p := benchSpace(b, mte.TCFSync)
			dst := make([]byte, n)
			b.SetBytes(int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if f := s.CopyOut(ctx, p, dst); f != nil {
					b.Fatal(f)
				}
			}
		})
	}
}

// BenchmarkCopyOutUnguarded is BenchmarkCopyOutChecked with the tag compare
// elided, the bulk path of a proven-safe native read.
func BenchmarkCopyOutUnguarded(b *testing.B) {
	for _, n := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s, ctx, p := benchSpace(b, mte.TCFSync)
			dst := make([]byte, n)
			b.SetBytes(int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if f := s.CopyOutUnguarded(ctx, p, dst); f != nil {
					b.Fatal(f)
				}
			}
		})
	}
}

// BenchmarkMoveChecked measures the checked memcpy of the Fig5 native method
// proper: both sides tag-checked, then the data copy.
func BenchmarkMoveChecked(b *testing.B) {
	for _, n := range []int{1024, 16384} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s, ctx, p := benchSpace(b, mte.TCFSync)
			src, dst := p, p.Add(1<<19)
			b.SetBytes(int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if f := s.Move(ctx, dst, src, n); f != nil {
					b.Fatal(f)
				}
			}
		})
	}
}

// BenchmarkSetTagRange measures the tag-write path of Algorithm 1 step 3 (and
// its zeroing twin of Algorithm 2), per span size in bytes.
func BenchmarkSetTagRange(b *testing.B) {
	for _, n := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s, _, p := benchSpace(b, mte.TCFSync)
			m, ok := s.Resolve(p.Addr())
			if !ok {
				b.Fatal("mapping not found")
			}
			b.SetBytes(int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.SetTagRange(m.Base(), m.Base()+mte.Addr(n), mte.Tag(i&0xF)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
