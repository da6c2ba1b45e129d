package core

import (
	"math"
	"testing"

	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/stats"
	"repro/internal/topology"
)

// TestSymbolicRowMatchesReduce proves the class harness's row aggregation
// equals the per-rank fused OpMinSumMax Reduce bit for bit, for latencies
// that differ rank to rank (so the binomial association order of the sum
// is exercised) and for latencies that are uniform per class of ranks, on
// power-of-two and ragged rank counts.
func TestSymbolicRowMatchesReduce(t *testing.T) {
	perRank := func(r int) float64 {
		// Irregular magnitudes make float addition non-associative.
		return 1/float64(r+3) + math.Ldexp(float64(r%5), -r%7) + float64(r*r)*1e7
	}
	perClass := func(r int) float64 {
		// Three classes of ranks, as a folded world reports them.
		return []float64{12.345678901, 0.1 + 0.2, 1e9 / 7}[(r*r+r/3)%3]
	}
	for _, p := range []int{2, 3, 7, 16, 63, 96} {
		for name, lat := range map[string]func(int) float64{"per-rank": perRank, "per-class": perClass} {
			want := reduceRowPerRank(t, p, lat)
			got := symbolicRow(p, lat)
			got.Size = want.Size
			if got != want {
				t.Errorf("p=%d %s latencies: symbolic row %+v, per-rank Reduce row %+v", p, name, got, want)
			}
		}
	}
}

// reduceRowPerRank aggregates lat(r) through reduceRow on a goroutine
// world of p ranks, returning rank 0's row.
func reduceRowPerRank(t *testing.T, p int, lat func(r int) float64) stats.Row {
	t.Helper()
	world := newTestWorld(t, p)
	var row stats.Row
	err := world.Run(func(pr *mpi.Proc) error {
		o := &ops{c: pr.CommWorld()}
		r, err := reduceRow(o, 1, lat(pr.Rank()), 0)
		if pr.Rank() == 0 {
			row = r
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return row
}

func newTestWorld(t *testing.T, p int) *mpi.World {
	t.Helper()
	opts := Options{Benchmark: Allreduce, Ranks: p, PPN: 1}.withDefaults()
	cluster, err := topology.ByName(opts.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	place, err := topology.NewPlacement(cluster, p, (p+15)/16, topology.Block, false)
	if err != nil {
		t.Fatal(err)
	}
	model, err := netmodel.New(cluster, opts.Impl)
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(mpi.Config{Placement: place, Model: model, CarryData: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Release)
	return w
}
