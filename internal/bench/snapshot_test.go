package bench

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSnapshotJSONRoundTrip(t *testing.T) {
	s := NewSnapshot("unit test")
	s.Add(Result{Name: "Fig5SingleThread/MTE4JNI+Sync/n=2^12", Iters: 1000, NsPerOp: 4142, MBPerS: 3955})
	s.Add(Result{Name: "heap/AllocFreeSerial/size=256", Iters: 100, NsPerOp: 94.4})
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != SnapshotSchema || len(got.Results) != 2 || got.Note != "unit test" {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if r := got.Find("heap/AllocFreeSerial/size=256"); r == nil || r.NsPerOp != 94.4 {
		t.Fatalf("Find = %+v", r)
	}
	if got.Find("no-such-benchmark") != nil {
		t.Fatal("Find invented a result")
	}
}

func TestReadSnapshotRejectsWrongSchema(t *testing.T) {
	if _, err := ReadSnapshot(strings.NewReader(`{"schema":"other/v9"}`)); err == nil {
		t.Fatal("wrong schema accepted")
	}
}

func TestParseGoBench(t *testing.T) {
	// Two passes over two packages, the shape `make bench-snapshot` feeds in.
	const out = `goos: linux
goarch: amd64
pkg: mte4jni
cpu: AMD EPYC 7B13
BenchmarkFig5SingleThread/No_protection/n=2^12-1         	 2033736	       588.5 ns/op	27837.54 MB/s
BenchmarkFig5SingleThread/MTE4JNI+Sync/n=2^12-1          	  289500	      4142 ns/op	 3955.12 MB/s
some unrelated line
PASS
ok  	mte4jni	12.538s
goos: linux
goarch: amd64
pkg: mte4jni/internal/mem
cpu: AMD EPYC 7B13
BenchmarkLoad64Checked-1    	117651536	        10.12 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	mte4jni/internal/mem	1.2s
pkg: mte4jni
BenchmarkFig5SingleThread/No_protection/n=2^12-1         	 2000000	       600.2 ns/op	27000.00 MB/s
BenchmarkFig5SingleThread/MTE4JNI+Sync/n=2^12-1          	  300000	      4000 ns/op	 4000.00 MB/s
pkg: mte4jni/internal/mem
BenchmarkLoad64Checked-1    	117651536	        11.132 ns/op	       0 B/op	       0 allocs/op
`
	results, err := ParseGoBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("parsed %d results, want 3 (repeats folded): %+v", len(results), results)
	}
	// Root-package rows stay unprefixed; the faster second run wins the
	// fold, and its sibling fields come with it.
	r := results[1]
	if r.Name != "Fig5SingleThread/MTE4JNI+Sync/n=2^12" || r.Iters != 300000 ||
		r.NsPerOp != 4000 || r.MBPerS != 4000 || r.Runs != 2 || math.Abs(r.Spread-0.0355) > 1e-9 {
		t.Fatalf("parsed %+v", r)
	}
	// The faster first run stays put.
	if r := results[0]; r.NsPerOp != 588.5 || r.Runs != 2 || math.Abs(r.Spread-(600.2/588.5-1)) > 1e-12 {
		t.Fatalf("parsed %+v", r)
	}
	// A package below the root is prefixed with its last path element.
	if r := results[2]; r.Name != "mem/Load64Checked" || r.AllocsPerOp != 0 || r.NsPerOp != 10.12 ||
		r.Runs != 2 || math.Abs(r.Spread-0.1) > 1e-9 {
		t.Fatalf("parsed %+v", r)
	}

	single, err := ParseGoBench(strings.NewReader("BenchmarkX-2  10  5 ns/op\n"))
	if err != nil || len(single) != 1 || single[0].Runs != 1 || single[0].Spread != 0 {
		t.Fatalf("single run parsed %+v, %v", single, err)
	}
}

func TestDiffFileRoundTrip(t *testing.T) {
	before := NewSnapshot("before")
	before.Add(Result{Name: "x", NsPerOp: 100})
	after := NewSnapshot("after")
	after.Add(Result{Name: "x", NsPerOp: 50})
	path := filepath.Join(t.TempDir(), "diff.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewDiff("pr test", before, after).WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	d, err := ReadDiffFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Note != "pr test" || d.Before.Note != "before" || d.After.Find("x").NsPerOp != 50 {
		t.Fatalf("round trip lost data: %+v", d)
	}

	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"mte4jni-bench-diff/v1","before":null,"after":null}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDiffFile(bad); err == nil {
		t.Fatal("diff with missing snapshots accepted")
	}
}

func TestCompareTable(t *testing.T) {
	before := NewSnapshot("before")
	before.Add(Result{Name: "x", NsPerOp: 100, Runs: 5, Spread: 0.04})
	before.Add(Result{Name: "only-before", NsPerOp: 5})
	after := NewSnapshot("after")
	after.Add(Result{Name: "x", NsPerOp: 50, Runs: 5, Spread: 0.021})
	after.Add(Result{Name: "only-after", NsPerOp: 7})
	tbl := Compare(before, after)
	if tbl.Rows() != 3 {
		t.Fatalf("compare rows = %d, want 3 (one-sided rows listed)", tbl.Rows())
	}
	s := tbl.String()
	for _, want := range []string{"-50.00%", "4.0% / 2.1%", "only before", "only after"} {
		if !strings.Contains(s, want) {
			t.Fatalf("comparison table missing %q:\n%s", want, s)
		}
	}
}
