package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mte4jni/internal/bench"
)

// median of xs (0 when empty); xs is left unsorted.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is bench.Percentile's linear-interpolated q-quantile of a copy
// of xs.
func quantile(xs []float64, q float64) float64 {
	return bench.Percentile(append([]float64(nil), xs...), q*100)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostTicks reads the aggregate CPU line of /proc/stat: steal ticks and all
// ticks (guest time is already inside user time).
type hostTicks struct{ steal, total uint64 }

func readHostTicks() (hostTicks, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return hostTicks{}, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return hostTicks{}, fmt.Errorf("/proc/stat: empty")
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostTicks{}, fmt.Errorf("/proc/stat: unexpected first line %q", sc.Text())
	}
	var t hostTicks
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return hostTicks{}, fmt.Errorf("/proc/stat: %w", err)
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, nil
}

// stealShare is the share of all host CPU ticks between a and b that the
// hypervisor stole.
func stealShare(a, b hostTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// goCPU is the Go runtime's own CPU accounting: GC time and all time.
type goCPU struct{ gc, total float64 }

func readGoCPU() goCPU {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var c goCPU
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.total = s[1].Value.Float64()
	}
	return c
}
