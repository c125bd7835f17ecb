// Command servebench is the served benchmark of the mte4jni daemon. It starts
// the daemon in-process (server.New with the `mte4jni serve` defaults, served
// over loopback HTTP), drives one seeded workload through it in a closed loop
// over one keep-alive connection, checks every reply against the outcome the
// request's scheme must produce, reconciles /metrics and the pool's counters
// against the client's own counts, and prints the end-to-end metrics. With
// -trace 1 it then replays the same seeded requests in-process with spans
// around each layer's public entry points and prints per-layer metrics.
//
//	go build -o servebench . && ./servebench -workload jni-handout -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. The run record and, with -trace 1, the span file are
// written under .bench_build/servebench/ in the working directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mte4jni/internal/bench"
)

// Set-up samples: setup_s is the median of the measuring process's own
// set-up and of child-process set-ups, each in a fresh process. Half the
// children run before the timed window and half after it, so the samples
// span the run's changing host load; each half stops at setupChildren
// children or once it has taken setupBudget.
const (
	setupChildren = 15
	setupBudget   = 2 * time.Second
)

// p99Chunk is how many consecutive completions each p99 is taken over.
const p99Chunk = 1000

// outDir holds run records and span files, relative to the working directory.
const outDir = ".bench_build/servebench"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	name := fs.String("workload", "", "jni-handout, geekbench or admission-churn")
	seed := fs.Int64("seed", 1, "seed the request sequence is drawn from")
	seconds := fs.Int("seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "1: also run the traced replay and print per-layer metrics")
	setupOnly := fs.Bool("setup-only", false, "time one set-up, print its seconds and exit (used for fresh-process set-up samples)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// The client and the daemon share the process; GOMAXPROCS 2 gives the
	// daemon's goroutines and the Go runtime a second CPU, as on the 2-vCPU
	// host the benchmark was tuned on.
	if runtime.NumCPU() < 2 {
		fmt.Fprintf(os.Stderr, "servebench: needs at least 2 CPUs for GOMAXPROCS 2, have %d\n", runtime.NumCPU())
		return 2
	}
	runtime.GOMAXPROCS(2)
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "servebench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	w, err := lookupWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 2
	}
	if *setupOnly {
		d, took, _, err := setUp(w, *seed)
		if err == nil {
			err = d.stop()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "servebench: set-up:", err)
			return 1
		}
		fmt.Println(took.Seconds())
		return 0
	}
	res, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// childSetups times up to n set-ups, each in a fresh child process, and
// stops early once budget has elapsed.
func childSetups(w *workload, seed int64, n int, budget time.Duration) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	start := time.Now()
	for i := 0; i < n && time.Since(start) < budget; i++ {
		cmd := exec.Command(self, "-setup-only", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10))
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up child printed %q", b)
		}
		out = append(out, v)
	}
	return out, nil
}

// window is everything measured over the timed window.
type window struct {
	samples    []sample
	tally      tally
	wall       time.Duration
	cpu        time.Duration
	sliceCPU   []time.Duration // process CPU per one-second slice
	steal      float64
	heapLive   uint64
	gcCycles   uint32
	gcCPU      float64 // GC's share of the Go runtime's CPU time in the window
	waitersMax int     // most Acquires parked on the pool at once (traced runs only)
	allocB     uint64
	reconcile  error
}

// runWindow drives every connection in a closed loop for d and reconciles
// the server's counters with the client's tally afterwards.
func runWindow(dm *daemon, w *workload, srcs [conns]*source, d time.Duration, watch bool) (*window, error) {
	before, err := dm.counters()
	if err != nil {
		return nil, err
	}
	ticks0, err := readHostTicks()
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := readGoCPU()
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	var (
		wg       sync.WaitGroup
		samples  [conns][]sample
		tallies  [conns]tally
		sliceCPU []time.Duration
		stop     = make(chan struct{})
		sampled  = make(chan struct{})
	)
	waitersMax := 0
	go func() {
		defer close(sampled)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		// The traced run also watches the pool's waiter queue; the
		// untraced run does not pay for the sampling.
		var watchC <-chan time.Time
		if watch {
			wt := time.NewTicker(10 * time.Millisecond)
			defer wt.Stop()
			watchC = wt.C
		}
		last := cpu0
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				now := cpuTime()
				sliceCPU = append(sliceCPU, now-last)
				last = now
			case <-watchC:
				waitersMax = max(waitersMax, dm.srv.Pool().Stats().Waiters)
			}
		}
	}()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			samples[c], tallies[c] = connLoop(dm, w, srcs[c], c, start, deadline)
		}(c)
	}
	wg.Wait()
	close(stop)
	<-sampled
	runtime.ReadMemStats(&ms1)
	win := &window{wall: time.Since(start), cpu: cpuTime() - cpu0, sliceCPU: sliceCPU, waitersMax: waitersMax}
	gc1 := readGoCPU()
	if total := gc1.total - gc0.total; total > 0 {
		win.gcCPU = (gc1.gc - gc0.gc) / total
	}
	ticks1, err := readHostTicks()
	if err != nil {
		return nil, err
	}
	win.steal = stealShare(ticks0, ticks1)
	win.gcCycles = ms1.NumGC - ms0.NumGC
	win.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	for c := range samples {
		win.samples = append(win.samples, samples[c]...)
		win.tally.add(tallies[c])
	}
	after, err := dm.counters()
	if err != nil {
		return nil, err
	}
	win.reconcile = reconcile(before, after, win.tally)
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	win.heapLive = ms1.HeapAlloc
	return win, nil
}

// latencies groups window latencies (ms) by kind and scheme.
func latencies(w *workload, samples []sample) [][4][]float64 {
	by := make([][4][]float64, len(w.kinds))
	for _, s := range samples {
		by[s.kind][s.scheme] = append(by[s.kind][s.scheme], float64(s.lat.Nanoseconds())/1e6)
	}
	return by
}

// schemeP50 is, per scheme, the geometric mean over the workload's kinds of
// each kind's median latency (ms) and the samples behind it.
func schemeP50(by [][4][]float64) ([4]float64, [4]int) {
	var p50 [4]float64
	var n [4]int
	for s := range p50 {
		var meds []float64
		for k := range by {
			if len(by[k][s]) > 0 {
				meds = append(meds, median(by[k][s]))
				n[s] += len(by[k][s])
			}
		}
		p50[s] = bench.GeoMean(meds)
	}
	return p50, n
}

// sliceRates turns the window into one-second slices and returns, per full
// slice, correct completions per second and process CPU ms per completion.
func sliceRates(win *window) (rps, cpuMS []float64) {
	good := make([]int, len(win.sliceCPU))
	done := make([]int, len(win.sliceCPU))
	for _, s := range win.samples {
		i := int(s.end / time.Second)
		if i < len(done) {
			done[i]++
			if s.good {
				good[i]++
			}
		}
	}
	for i, c := range win.sliceCPU {
		if done[i] == 0 {
			continue
		}
		rps = append(rps, float64(good[i]))
		cpuMS = append(cpuMS, c.Seconds()*1e3/float64(done[i]))
	}
	return rps, cpuMS
}

// measure runs one benchmark invocation: set-up samples, the timed window
// and, when traced, the replay.
func measure(w *workload, seed int64, d time.Duration, traced bool) (*result, error) {
	// setup_s is an end-to-end metric: traced runs take no child samples.
	children := setupChildren
	if traced {
		children = 0
	}
	setups, err := childSetups(w, seed, children, setupBudget)
	if err != nil {
		return nil, err
	}
	dm, took, builds, err := setUp(w, seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setups = append(setups, took.Seconds())
	var srcs [conns]*source
	for c := range srcs {
		srcs[c] = newSource(w, seed, c)
	}
	win, err := runWindow(dm, w, srcs, d, traced)
	if err != nil {
		dm.stop()
		return nil, err
	}
	by := latencies(w, win.samples)
	p50, p50n := schemeP50(by)
	all := make([]float64, 0, len(win.samples))
	for _, s := range win.samples {
		all = append(all, float64(s.lat.Nanoseconds())/1e6)
	}
	p99, chunks := chunkedP99(win.samples)
	rps, cpuMS := sliceRates(win)
	perKind := map[string]map[string][2]float64{} // kind → scheme → {p50 ms, samples}
	for k := range by {
		for s := range by[k] {
			if len(by[k][s]) > 0 {
				if perKind[w.kinds[k]] == nil {
					perKind[w.kinds[k]] = map[string][2]float64{}
				}
				perKind[w.kinds[k]][schemeNames[s]] = [2]float64{median(by[k][s]), float64(len(by[k][s]))}
			}
		}
	}

	rec := map[string]any{
		"workload": w.name, "seed": seed, "connections": conns,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version(),
		"window_s": win.wall.Seconds(), "process_cpu_s": win.cpu.Seconds(), "host_steal_share": win.steal,
		"requests_by_kind_and_outcome": win.tally.perKind,
		"window_throughput_rps":        float64(win.tally.good) / win.wall.Seconds(),
		"lat_p50_samples":              map[string]int{"none": p50n[0], "guarded": p50n[1], "sync": p50n[2], "async": p50n[3]},
		"lat_p99_samples":              len(all),
		"lat_p99_chunks":               chunks,
		"lat_p99_ms_whole_window":      quantile(all, 0.99),
		"lat_p50_ms_by_kind_scheme":    perKind,
		"reconciliation":               errString(win.reconcile),
		"first_wrong_outcome":          errString(win.tally.firstErr),
		"paper_comparison":             paperComparison(w.name, p50),
	}
	res := &result{
		Correct:   win.reconcile == nil && win.tally.good == win.tally.attempted,
		Attempted: win.tally.attempted,
		Failed:    win.tally.attempted - win.tally.good,
	}
	if traced {
		tr, err := replay(dm, w, srcs, d/2, win, by, builds)
		if err != nil {
			dm.stop()
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		res.Metrics = tr.metrics
		rec["trace"] = tr.record
		if tr.err != nil {
			res.Correct = false
			rec["trace_error"] = tr.err.Error()
		}
	}
	if err := dm.stop(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	after, err := childSetups(w, seed, children, setupBudget)
	if err != nil {
		return nil, err
	}
	setups = append(setups, after...)
	rec["setup_samples_s"] = setups
	if !traced {
		res.Metrics = map[string]metric{
			"throughput_rps":     {median(rps), "req/s"},
			"lat_p50_ms.none":    {p50[schemeNone], "ms"},
			"lat_p50_ms.guarded": {p50[schemeGuarded], "ms"},
			"lat_p50_ms.sync":    {p50[schemeSync], "ms"},
			"lat_p50_ms.async":   {p50[schemeAsync], "ms"},
			"lat_p99_ms":         {p99, "ms"},
			"cpu_ms_per_req":     {median(cpuMS), "ms"},
			"ok_share":           {float64(win.tally.good) / float64(win.tally.attempted), "ratio"},
			"setup_s":            {median(setups), "s"},
			"mem_live_mb":        {float64(win.heapLive) / (1 << 20), "MiB"},
		}
	}
	rec["metrics"] = res.Metrics
	rec["correct"] = res.Correct
	path := filepath.Join(outDir, fmt.Sprintf("record-%s-seed%d-trace%d.json", w.name, seed, boolInt(traced)))
	if err := writeJSONFile(path, rec); err != nil {
		return nil, err
	}
	summarize(w, win, p50, p99, len(all), chunks, setups, path)
	return res, nil
}

// chunkedP99 splits the window's completions, in completion order, into
// chunks of p99Chunk requests (the last chunk absorbs the remainder), takes
// each chunk's p99 (at least 10 requests lie beyond it) and returns their
// median, with the chunk count. A burst of host steal inflates the p99 of
// the chunks it hits, not the median over chunks.
func chunkedP99(samples []sample) (float64, int) {
	byEnd := append([]sample(nil), samples...)
	sort.Slice(byEnd, func(i, j int) bool { return byEnd[i].end < byEnd[j].end })
	n := max(len(byEnd)/p99Chunk, 1)
	var p99s []float64
	for c := 0; c < n; c++ {
		hi := (c + 1) * p99Chunk
		if c == n-1 {
			hi = len(byEnd)
		}
		var lat []float64
		for _, s := range byEnd[c*p99Chunk : hi] {
			lat = append(lat, float64(s.lat.Nanoseconds())/1e6)
		}
		p99s = append(p99s, quantile(lat, 0.99))
	}
	return median(p99s), n
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// paperComparison sets the served per-scheme ratios next to the paper's. They
// are printed, never gated: any speed-up of the path all schemes share (the
// HTTP edge, parsing) raises them.
func paperComparison(workload string, p50 [4]float64) map[string]any {
	if p50[schemeNone] == 0 {
		return nil
	}
	switch workload {
	case "jni-handout":
		paper := [4]float64{1, 26.58, 2.36, 2.24}
		out := map[string]any{"basis": "p50(scheme) / p50(none); paper: Fig 5"}
		for s := 1; s < 4; s++ {
			out[schemeNames[s]] = map[string]float64{"served_ratio": p50[s] / p50[schemeNone], "paper_ratio": paper[s]}
		}
		return out
	case "geekbench":
		paper := [4]float64{0, 5.90, 5.33, 1.13}
		out := map[string]any{"basis": "degradation % = (p50(scheme) / p50(none) - 1) * 100; paper: section 5.4"}
		for s := 1; s < 4; s++ {
			out[schemeNames[s]] = map[string]float64{"served_pct": (p50[s]/p50[schemeNone] - 1) * 100, "paper_pct": paper[s]}
		}
		return out
	}
	return nil
}

// summarize prints the run record's headline to stdout, ahead of the result
// line.
func summarize(w *workload, win *window, p50 [4]float64, p99 float64, n, chunks int, setups []float64, path string) {
	fmt.Printf("servebench %s: %d requests in %.2fs over %d connections (nproc %d, GOMAXPROCS %d, %s), host steal %.1f%%\n",
		w.name, win.tally.attempted, win.wall.Seconds(), conns, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), win.steal*100)
	fmt.Printf("  p50 ms: none %.4f  guarded %.4f  sync %.4f  async %.4f   p99 %.3f ms (median over %d chunks, %d requests)\n",
		p50[0], p50[1], p50[2], p50[3], p99, chunks, n)
	fmt.Printf("  set-up samples (s): %v\n", setups)
	for k, outs := range win.tally.perKind {
		fmt.Printf("  %-20s %v\n", k, outs)
	}
	if pc := paperComparison(w.name, p50); pc != nil {
		b, _ := json.Marshal(pc)
		fmt.Printf("  paper comparison (ungated): %s\n", b)
	}
	if win.reconcile != nil {
		fmt.Printf("  RECONCILIATION FAILED: %v\n", win.reconcile)
	}
	if win.tally.firstErr != nil {
		fmt.Printf("  WRONG OUTCOME: %v\n", win.tally.firstErr)
	}
	fmt.Printf("  run record: %s\n", path)
}
