package repro

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
)

// Steady-state allocation ceilings for the huge-world timing-only sweep.
// The PR5 baseline sat at ~437k allocations per 4096-rank run; the
// symmetry-folded engine plus the cross-world schedule/step caches brought
// a warm run to ~96k, and the schedfold slab pools held 16Ki to ~71k. The
// class-level harness (internal/core/uniform.go) runs the sweep without
// ranks, coroutines or mailboxes: a warm run is now ~150-180 allocations at
// any of these sizes — shape re-pricing, partition transitions and the
// per-call exit link-state slabs, not per-rank state. The ceilings pin
// those counts with jitter headroom, so a regression that brings back any
// per-rank allocation (one per rank is 1024+) trips the test at once.
var allocCeilings = []struct {
	ranks   int
	ceiling uint64
}{
	{1024, 240},
	{4096, 240},
	{16384, 260},
	{32768, 270},
}

func hugeWorldRun(t *testing.T, ranks int) {
	t.Helper()
	if _, err := core.Run(hugeWorldOptions(ranks, false)); err != nil {
		t.Fatal(err)
	}
}

// TestHugeWorldAllocRegression measures the malloc count of one warm
// huge-world run against the pinned ceilings. Two untimed runs first warm
// the process-wide caches (compiled step lists, recycled schedules), which
// is exactly the steady state a parameter sweep lives in.
func TestHugeWorldAllocRegression(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts shift under the race detector")
	}
	if testing.Short() {
		t.Skip("huge-world run in -short mode")
	}
	for _, tc := range allocCeilings {
		t.Run(fmt.Sprint(tc.ranks), func(t *testing.T) {
			hugeWorldRun(t, tc.ranks)
			hugeWorldRun(t, tc.ranks)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			hugeWorldRun(t, tc.ranks)
			runtime.ReadMemStats(&after)
			got := after.Mallocs - before.Mallocs
			t.Logf("%d ranks: %d allocations (ceiling %d)", tc.ranks, got, tc.ceiling)
			if got > tc.ceiling {
				t.Errorf("warm %d-rank sweep made %d allocations, ceiling %d",
					tc.ranks, got, tc.ceiling)
			}
		})
	}
}
