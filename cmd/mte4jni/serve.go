package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mte4jni/internal/analysis"
	"mte4jni/internal/pool"
	"mte4jni/internal/report"
	"mte4jni/internal/server"
)

// runServe starts the multi-tenant serving daemon: a pool of isolated VM
// sessions behind an HTTP/JSON API. See internal/server for the endpoints
// and DESIGN.md "Serving layer" for the lifecycle.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8321", "listen address; port 0 binds an ephemeral port")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening (for scripts using port 0)")
	sessions := fs.Int("sessions", 64, "maximum concurrent VM sessions")
	shards := fs.Int("shards", 1, "admission shards the pool is split into ({tenant, scheme}-affine routing with cross-shard work stealing)")
	waiters := fs.Int("waiters", 0, "maximum queued requests before shedding with 503 (0 = 4x sessions)")
	heapMB := fs.Int("heap-mb", 32, "per-session Java heap size in MiB")
	seed := fs.Int64("seed", 1, "base tag-RNG seed (session n runs with seed+n)")
	faultRing := fs.Int("fault-ring", report.DefaultSinkCapacity, "fault records retained for /metrics")
	acquireTimeout := fs.Duration("acquire-timeout", 5*time.Second, "how long a request may wait for a session")
	runTimeout := fs.Duration("run-timeout", 0, "per-request execution deadline, lease wait included (0 = none); expiry returns 504")
	stepBudget := fs.Int64("step-budget", 0, "interpreter steps allowed per inline-program run (0 = interpreter default)")
	shutdownTimeout := fs.Duration("shutdown-timeout", 10*time.Second, "how long graceful shutdown may drain in-flight requests")
	attackDelayThreshold := fs.Int("attack-delay-threshold", 0, "per-tenant detected faults before admissions are throttled (0 = escalating defense delay tier off)")
	attackQuarantineThreshold := fs.Int("attack-quarantine-threshold", 0, "per-tenant detected faults before admissions are refused with 429 (0 = quarantine tier off)")
	attackDelay := fs.Duration("attack-delay", time.Millisecond, "admission delay in the throttling tier")
	attackDecay := fs.Duration("attack-decay", 0, "interval after which an escalated tenant steps one defense tier back down (0 = escalation is permanent)")
	temporalPolicy := fs.String("temporal-policy", "reject", "what to do with programs whose temporal exposure is live under the requested scheme: reject, force-sync, or log")
	fs.Parse(args)

	policy, err := analysis.ParseTemporalPolicy(*temporalPolicy)
	if err != nil {
		return err
	}

	srv := server.New(server.Config{
		Pool: pool.Config{
			MaxSessions: *sessions,
			Shards:      *shards,
			MaxWaiters:  *waiters,
			HeapSize:    uint64(*heapMB) << 20,
			Seed:        *seed,
			Defense: pool.DefenseConfig{
				DelayThreshold:      *attackDelayThreshold,
				QuarantineThreshold: *attackQuarantineThreshold,
				Delay:               *attackDelay,
				DecayInterval:       *attackDecay,
			},
		},
		SinkCapacity:   *faultRing,
		AcquireTimeout: *acquireTimeout,
		RunTimeout:     *runTimeout,
		StepBudget:     *stepBudget,
		TemporalPolicy: policy,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "mte4jni serve: listening on %s (%d sessions, %d MiB heap each)\n",
		bound, *sessions, *heapMB)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "mte4jni serve: shutting down")
	// The shutdown context derives from the signal context rather than a
	// fresh Background(): WithoutCancel strips the already-fired first
	// signal (which would expire the drain instantly) while keeping the
	// context lineage, the timeout bounds the drain, and a second signal
	// during the drain aborts it immediately.
	shutdownCtx, cancel := signal.NotifyContext(context.WithoutCancel(ctx), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	shutdownCtx, cancelTimeout := context.WithTimeout(shutdownCtx, *shutdownTimeout)
	defer cancelTimeout()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return <-errCh
}
