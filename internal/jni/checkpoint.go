package jni

import "fmt"

// Checkpoint placement: where, relative to the acquire/release window a
// native holds on a handed-out region, the checker actually observes an
// illicit access. The trampoline (trampoline.go) and the copying checker
// realize these placements at runtime; the static temporal domain in
// internal/analysis consumes them to compute happens-before edges between a
// native's writes and the check that would report them. A deferred placement
// is exactly a damage window: every event ordered between the violation and
// the checkpoint happens-before the report.
type CheckPlacement int

const (
	// PlacePerAccess checks at every load/store inside the window (MTE with
	// synchronous TCF): the first violating access faults before any later
	// event, so no interfering write can precede its own report.
	PlacePerAccess CheckPlacement = iota
	// PlaceTrampolineExit latches the fault at the violating access but only
	// reports it at the next synchronization point — a syscall or the
	// trampoline exit (MTE with asynchronous TCF, §4.3). Everything the
	// native does between the violation and the exit happens-before the
	// report.
	PlaceTrampolineExit
	// PlaceAtRelease verifies red-zone canaries when the region is released
	// (the guarded-copy checker): the whole hold window happens-before the
	// check, and accesses that never walk through a canary — reads, or
	// writes landing beyond both red zones — are never observed at all.
	PlaceAtRelease
	// PlaceNever arms no check: @CriticalNative bodies (checking is never
	// armed for them) and the no-protection scheme.
	PlaceNever
)

// String names the placement.
func (p CheckPlacement) String() string {
	switch p {
	case PlacePerAccess:
		return "per-access"
	case PlaceTrampolineExit:
		return "trampoline-exit"
	case PlaceAtRelease:
		return "at-release"
	case PlaceNever:
		return "never"
	default:
		return fmt.Sprintf("CheckPlacement(%d)", int(p))
	}
}
