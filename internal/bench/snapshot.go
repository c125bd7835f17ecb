package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark snapshots: a machine-readable record of a benchmark run, stable
// enough to commit next to the code it measures (BENCH_*.json at the repo
// root). Every snapshot is parsed from `go test -bench` text output (see
// ParseGoBench and `make bench-snapshot`), so before and after numbers land
// in one schema and can be diffed with Compare.

// SnapshotSchema identifies the snapshot JSON layout.
const SnapshotSchema = "mte4jni-bench-snapshot/v1"

// Result is one benchmark's outcome.
type Result struct {
	// Name is the benchmark path, e.g.
	// "Fig5SingleThread/MTE4JNI+Sync/n=2^12".
	Name string `json:"name"`
	// Iters is the number of timed iterations behind the numbers.
	Iters int `json:"iters"`
	// NsPerOp is the headline cost of one operation.
	NsPerOp float64 `json:"ns_per_op"`
	// MBPerS is throughput when the benchmark declared bytes/op; 0 otherwise.
	MBPerS float64 `json:"mb_per_s,omitempty"`
	// AllocsPerOp and BytesPerOp are Go allocator traffic per operation,
	// when measured (-benchmem).
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// TagBytesPerOp and TagBytesFlatPerOp are set by the tag-footprint
	// cases: the hierarchical tag store's resident bytes after the
	// workload, and what the flat per-granule array would have paid for
	// the same mappings. Both are end-of-run gauges, not per-iteration
	// rates; 0 for cases that do not measure tag residency.
	TagBytesPerOp     float64 `json:"tag_bytes_per_op,omitempty"`
	TagBytesFlatPerOp float64 `json:"tag_bytes_flat_per_op,omitempty"`
	// Runs is how many runs of the benchmark ParseGoBench folded into this
	// row; the other fields are the fastest run's. Snapshots written before
	// folding existed leave it 0.
	Runs int `json:"runs,omitempty"`
	// Spread is the folded runs' slowest ns/op over their fastest, minus
	// one: the run-to-run noise behind the row (0 for a single run).
	Spread float64 `json:"spread,omitempty"`
}

// Snapshot is a full benchmark run plus the environment it ran in.
type Snapshot struct {
	Schema    string   `json:"schema"`
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	NumCPU    int      `json:"num_cpu"`
	Note      string   `json:"note,omitempty"`
	Results   []Result `json:"results"`
}

// NewSnapshot creates an empty snapshot stamped with the current
// environment.
func NewSnapshot(note string) *Snapshot {
	return &Snapshot{
		Schema:    SnapshotSchema,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Note:      note,
	}
}

// Add appends a result.
func (s *Snapshot) Add(r Result) { s.Results = append(s.Results, r) }

// Find returns the result with the exact name, or nil.
func (s *Snapshot) Find(name string) *Result {
	for i := range s.Results {
		if s.Results[i].Name == name {
			return &s.Results[i]
		}
	}
	return nil
}

// WriteJSON writes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSnapshot parses a snapshot from JSON and validates the schema tag.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("bench: reading snapshot: %w", err)
	}
	if s.Schema != SnapshotSchema {
		return nil, fmt.Errorf("bench: unknown snapshot schema %q (want %q)", s.Schema, SnapshotSchema)
	}
	return &s, nil
}

// ReadSnapshotFile reads a snapshot from a file.
func ReadSnapshotFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSnapshot(f)
}

// ParseGoBench converts `go test -bench` text output into results. Lines
// other than benchmark results and `pkg:` headers are ignored, so whole test
// logs, several packages and passes concatenated, can be piped in.
//
// A row is named after its benchmark without the "Benchmark" prefix and the
// trailing "-N" GOMAXPROCS suffix. A benchmark from a package below the
// module root is prefixed with the last element of its `pkg:` path:
// BenchmarkLoad64Checked under `pkg: mte4jni/internal/mem` becomes
// "mem/Load64Checked", while root-package rows stay unprefixed.
//
// A benchmark that appears more than once (several passes, or -count N)
// folds into one row holding its fastest run, with Runs and Spread saying
// how many runs were folded and how far apart they were. The minimum is the
// reproducible quantity on a shared host: noise only ever adds time.
func ParseGoBench(r io.Reader) ([]Result, error) {
	var out []Result
	index := map[string]int{}
	slowest := map[string]float64{}
	prefix := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if pkg, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(pkg)
			prefix = ""
			if i := strings.LastIndex(pkg, "/"); i >= 0 {
				prefix = pkg[i+1:] + "/"
			}
			continue
		}
		res, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		res.Name = prefix + res.Name
		i, seen := index[res.Name]
		if !seen {
			index[res.Name] = len(out)
			slowest[res.Name] = res.NsPerOp
			out = append(out, res)
			continue
		}
		slowest[res.Name] = max(slowest[res.Name], res.NsPerOp)
		res.Runs += out[i].Runs
		if res.NsPerOp < out[i].NsPerOp {
			out[i] = res
		} else {
			out[i].Runs = res.Runs
		}
	}
	for i := range out {
		if fastest := out[i].NsPerOp; fastest > 0 {
			out[i].Spread = slowest[out[i].Name]/fastest - 1
		}
	}
	return out, sc.Err()
}

// parseBenchLine parses one `go test -bench` result line, reporting false
// for any other line.
func parseBenchLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.Atoi(fields[1])
	if err != nil {
		return Result{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	res := Result{Name: name, Iters: iters, Runs: 1}
	// Remaining fields come in value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			res.NsPerOp = v
		case "MB/s":
			res.MBPerS = v
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			res.AllocsPerOp = v
		case "tagB/op":
			res.TagBytesPerOp = v
		case "flatTagB/op":
			res.TagBytesFlatPerOp = v
		}
	}
	return res, true
}

// DiffSchema identifies the combined before/after snapshot JSON layout —
// the format of the BENCH_*.json files committed at the repo root.
const DiffSchema = "mte4jni-bench-diff/v1"

// Diff pairs a before and an after snapshot in one committable file.
type Diff struct {
	Schema string    `json:"schema"`
	Note   string    `json:"note,omitempty"`
	Before *Snapshot `json:"before"`
	After  *Snapshot `json:"after"`
}

// NewDiff combines two snapshots.
func NewDiff(note string, before, after *Snapshot) *Diff {
	return &Diff{Schema: DiffSchema, Note: note, Before: before, After: after}
}

// WriteJSON writes the diff as indented JSON.
func (d *Diff) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// ReadDiffFile reads a combined before/after file and validates all three
// schema tags.
func ReadDiffFile(path string) (*Diff, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var d Diff
	if err := json.NewDecoder(f).Decode(&d); err != nil {
		return nil, fmt.Errorf("bench: reading diff %s: %w", path, err)
	}
	if d.Schema != DiffSchema {
		return nil, fmt.Errorf("bench: unknown diff schema %q (want %q)", d.Schema, DiffSchema)
	}
	if d.Before == nil || d.After == nil {
		return nil, fmt.Errorf("bench: diff %s is missing a before or after snapshot", path)
	}
	for _, s := range []*Snapshot{d.Before, d.After} {
		if s.Schema != SnapshotSchema {
			return nil, fmt.Errorf("bench: diff %s embeds unknown snapshot schema %q", path, s.Schema)
		}
	}
	return &d, nil
}

// Comparable reports why two snapshots cannot be compared row by row, or
// nil. Timings taken on different CPU counts differ by scheduling as much
// as by code, so a diff across them would gate on the host, not the change.
func Comparable(before, after *Snapshot) error {
	if before.NumCPU != after.NumCPU {
		return fmt.Errorf("bench: snapshots ran on different CPU counts (before %d, after %d); measure both sides on one host",
			before.NumCPU, after.NumCPU)
	}
	return nil
}

// Regression is one benchmark that fails the gate between two snapshots:
// its ns/op grew past the threshold, or it is missing from the after
// snapshot.
type Regression struct {
	Name     string  `json:"name"`
	BeforeNS float64 `json:"before_ns_per_op"`
	AfterNS  float64 `json:"after_ns_per_op"`
	DeltaPct float64 `json:"delta_pct"`
	Missing  bool    `json:"missing,omitempty"`
}

// String renders the regression the way the CI gate prints it.
func (r Regression) String() string {
	if r.Missing {
		return fmt.Sprintf("%s: %.1f ns/op before, missing from the after snapshot", r.Name, r.BeforeNS)
	}
	return fmt.Sprintf("%s: %.1f -> %.1f ns/op (%+.1f%%)", r.Name, r.BeforeNS, r.AfterNS, r.DeltaPct)
}

// Regressions returns, in before-snapshot order, every benchmark whose
// ns/op grew by strictly more than thresholdPct percent, and every
// benchmark missing from the after snapshot: deleting or renaming a slow
// row must not pass the gate. It is the decision procedure behind
// `mte4jni bench -diff -threshold`: a non-empty result fails the gate.
func Regressions(before, after *Snapshot, thresholdPct float64) []Regression {
	var out []Regression
	for _, b := range before.Results {
		a := after.Find(b.Name)
		if a == nil {
			out = append(out, Regression{Name: b.Name, BeforeNS: b.NsPerOp, Missing: true})
			continue
		}
		if b.NsPerOp == 0 {
			continue
		}
		delta := (a.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
		if delta > thresholdPct {
			out = append(out, Regression{Name: b.Name, BeforeNS: b.NsPerOp, AfterNS: a.NsPerOp, DeltaPct: delta})
		}
	}
	return out
}

// Compare renders a before/after table: ns/op on each side, the relative
// change (negative is faster) and each side's run-to-run spread, so a delta
// can be read against the noise behind it. Rows found on only one side are
// listed too, marked "only before" or "only after".
func Compare(before, after *Snapshot) *Table {
	t := NewTable("benchmark comparison", "benchmark", "before ns/op", "after ns/op", "delta", "spread before/after")
	for _, b := range before.Results {
		a := after.Find(b.Name)
		switch {
		case a == nil:
			t.AddRow(b.Name, fmt.Sprintf("%.1f", b.NsPerOp), "-", "only before")
		case b.NsPerOp == 0:
			t.AddRow(b.Name, "-", fmt.Sprintf("%.1f", a.NsPerOp), "no baseline")
		default:
			t.AddRow(b.Name,
				fmt.Sprintf("%.1f", b.NsPerOp),
				fmt.Sprintf("%.1f", a.NsPerOp),
				Percent((a.NsPerOp-b.NsPerOp)/b.NsPerOp*100),
				spread(b)+" / "+spread(*a))
		}
	}
	for _, a := range after.Results {
		if before.Find(a.Name) == nil {
			t.AddRow(a.Name, "-", fmt.Sprintf("%.1f", a.NsPerOp), "only after")
		}
	}
	return t
}

// spread renders a row's run-to-run spread, "-" when it folded one run or
// predates folding.
func spread(r Result) string {
	if r.Runs < 2 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", r.Spread*100)
}
