package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"
)

var workloadNames = []string{"jni-handout", "geekbench", "admission-churn"}

// TestMain lets the test binary serve as its own set-up child, the way the
// benchmark binary re-executes itself for fresh-process set-up samples.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-setup-only" {
		os.Exit(run(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// draw returns the first n requests of connection c's sequence.
func draw(t *testing.T, name string, seed int64, c, n int) []request {
	t.Helper()
	w, err := lookupWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	src := newSource(w, seed, c)
	out := make([]request, n)
	for i := range out {
		out[i] = src.next()
	}
	return out
}

func TestSameSeedSameSequence(t *testing.T) {
	for _, name := range workloadNames {
		w, _ := lookupWorkload(name, 1)
		n := 4 * len(w.deck)
		for c := 0; c < conns; c++ {
			a, b := draw(t, name, 7, c, n), draw(t, name, 7, c, n)
			other := draw(t, name, 8, c, n)
			differs := false
			mixA, mixOther := map[int]int{}, map[int]int{}
			for i := range a {
				if !bytes.Equal(a[i].body, b[i].body) || !bytes.Equal(a[i].twin, b[i].twin) || a[i].scheme != b[i].scheme {
					t.Fatalf("%s conn %d: request %d differs between two draws of seed 7", name, c, i)
				}
				if !bytes.Equal(a[i].body, other[i].body) {
					differs = true
				}
				mixA[a[i].kind]++
				mixOther[other[i].kind]++
			}
			if !differs {
				t.Errorf("%s conn %d: seeds 7 and 8 give the same requests", name, c)
			}
			for k := range w.kinds {
				if mixA[k] != mixOther[k] {
					t.Errorf("%s conn %d: kind %s sent %d times under seed 7, %d under seed 8", name, c, w.kinds[k], mixA[k], mixOther[k])
				}
			}
		}
	}
}

func TestChurnProgramsNeverRepeat(t *testing.T) {
	seen := map[string]bool{}
	for c := 0; c < conns; c++ {
		for _, r := range draw(t, "admission-churn", 3, c, 2000) {
			if r.prog == nil && r.want.status != 422 {
				continue
			}
			for _, b := range [][]byte{r.body, r.twin} {
				var in struct{ Program json.RawMessage }
				if err := json.Unmarshal(b, &in); err != nil {
					t.Fatal(err)
				}
				if seen[string(in.Program)] {
					t.Fatalf("program repeats: %.120s", in.Program)
				}
				seen[string(in.Program)] = true
			}
		}
	}
}

// TestOutcomeTable sends every kind of every workload under all four
// schemes to a live daemon and checks the reply against the outcome table.
func TestOutcomeTable(t *testing.T) {
	d, err := startDaemon()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := d.stop(); err != nil {
			t.Error(err)
		}
	}()
	rng := rand.New(rand.NewSource(1))
	n := 0
	for _, name := range workloadNames {
		w, _ := lookupWorkload(name, 5)
		for k := range w.kinds {
			for s := range schemeNames {
				n++
				r := w.build(k, s, rng, n)
				status, raw, err := d.post(0, r.body)
				if err == nil {
					_, err = check(status, raw, r.want)
				}
				if err != nil {
					t.Errorf("%s %s/%s: %v", name, w.kinds[k], schemeNames[s], err)
				}
			}
		}
	}
}

// TestSessionBuilds checks noise rule 2: the windows of jni-handout and
// geekbench build no session, and admission-churn builds exactly one per MTE
// quarantine. The reconciliation also checks every other counter.
func TestSessionBuilds(t *testing.T) {
	for _, name := range workloadNames {
		w, _ := lookupWorkload(name, 2)
		d, _, _, err := setUp(w, 2)
		if err != nil {
			t.Fatal(err)
		}
		var srcs [conns]*source
		for c := range srcs {
			srcs[c] = newSource(w, 2, c)
		}
		before := d.srv.Pool().Stats()
		win, err := runWindow(d, w, srcs, 1500*time.Millisecond, false)
		if err != nil {
			t.Fatal(err)
		}
		after := d.srv.Pool().Stats()
		if err := d.stop(); err != nil {
			t.Error(err)
		}
		if win.reconcile != nil || win.tally.firstErr != nil {
			t.Fatalf("%s: reconcile %v, outcome %v", name, win.reconcile, win.tally.firstErr)
		}
		created, quarantined := after.Created-before.Created, after.Quarantined-before.Quarantined
		switch name {
		case "admission-churn":
			if quarantined == 0 || created != quarantined {
				t.Errorf("%s: %d builds for %d quarantines", name, created, quarantined)
			}
		default:
			if created != 0 {
				t.Errorf("%s: %d sessions built in the window", name, created)
			}
		}
	}
}

// TestTracedReplayMetrics runs a short traced replay and checks it yields
// every per-layer metric BENCHMARK.json names, with finite values, and that
// the untraced path yields every end-to-end metric.
func TestTracedReplayMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, name := range workloadNames {
		w, _ := lookupWorkload(name, 4)
		for _, traced := range []bool{false, true} {
			res, err := measure(w, 4, time.Second, traced)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("%s traced=%v: incorrect run", name, traced)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}
