package core

import (
	"context"
	"math"
	"sync/atomic"

	"repro/internal/mpi"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// The class-level harness: registry benchmarks whose body is the plain
// runCollective loop, in C mode on a timing-only folded event-engine world,
// run the OMB pipeline once per world instead of once per rank
// (mpi.World.RunUniform). Per size it performs what every rank of the
// per-rank path does, on classes of identical ranks:
//
//  1. ResetClock. The per-rank path's barrier before the reset, and the
//     previous size's aggregation Reduce, only move clocks that the reset
//     zeroes, so neither is simulated: no reported number depends on them.
//  2. The body's barrier, then the timed loop, accumulating
//     elapsed += t1 - t0 per class in the float order of runCollective.
//  3. The row, computed from the per-rank latencies in the exact binomial
//     OpMinSumMax order of the per-rank Reduce rooted at rank 0
//     (symbolicRow), so AvgUs is bit-identical.
//
// Any refusal (mpi.ErrNotUniform) — a collective without a buffer-free
// entry, an unfoldable shape, a partition past the fold's class budget —
// returns false and RunContext runs the per-rank path unchanged, which
// stays the oracle and the only path for every other configuration.

// uniformRuns counts reports produced by the class-level harness; the
// parity tests read it to tell which path a run took.
var uniformRuns atomic.Int64

// uniformInvocation maps a runCollective collective to its class-level call,
// mirroring ops.collectiveC with nil buffers; false when the collective has
// no class-level entry: no buffer-free replayable schedule (reduce, gather,
// scatter, reduce-scatter, the vector collectives), or one the fold never
// resolves (both broadcast algorithms send and receive, not exchange).
func uniformInvocation(b Benchmark, n int, dt mpi.DType) (mpi.Invocation, bool) {
	switch b {
	case Barrier:
		return mpi.BarrierCall(), true
	case Allreduce:
		return mpi.AllreduceCall(n, dt, mpi.OpSum), true
	case Allgather:
		return mpi.AllgatherCall(n), true
	case Alltoall:
		return mpi.AlltoallCall(n), true
	}
	return mpi.Invocation{}, false
}

// runUniform runs the sweep on the class-level harness and returns its rows,
// or false when the configuration or any call refuses. Only contexts that
// can never be canceled take it: cancellation is observed by ranks at
// their collective entries and in the event loop, so a cancellable run
// keeps the per-rank path and its failure rows.
func runUniform(ctx context.Context, world *mpi.World, opts Options, spec *BenchmarkSpec,
	sizes []int) ([]stats.Row, bool) {
	if spec.loop == "" || opts.Mode != ModeC || !opts.TimingOnly || ctx.Done() != nil {
		return nil, false
	}
	invs := make([]mpi.Invocation, len(sizes))
	for i, size := range sizes {
		inv, ok := uniformInvocation(spec.loop, size, opts.DType)
		if !ok {
			return nil, false
		}
		invs[i] = inv
	}
	rows := make([]stats.Row, 0, len(sizes))
	p := world.Size()
	var elapsed, next, t0 []vtime.Micros
	err := world.RunUniform(func(u *mpi.Uniform) error {
		bar := mpi.BarrierCall()
		if err := u.Prepare(bar); err != nil {
			return err
		}
		for _, inv := range invs {
			if err := u.Prepare(inv); err != nil {
				return err
			}
		}
		for i, size := range sizes {
			iters, warmup := iterCounts(opts, size)
			u.ResetClocks()
			if err := u.Invoke(bar); err != nil {
				return err
			}
			elapsed = growMicros(elapsed, u.Classes())
			clear(elapsed)
			for it := 0; it < warmup+iters; it++ {
				t0 = t0[:0]
				for c := 0; c < u.Classes(); c++ {
					t0 = append(t0, u.Clock(c))
				}
				if err := u.Invoke(invs[i]); err != nil {
					return err
				}
				n := u.Classes()
				next = growMicros(next, n)
				for c := 0; c < n; c++ {
					par := u.Parent(c)
					e := elapsed[par]
					if it >= warmup {
						e += u.Clock(c) - t0[par]
					}
					next[c] = e
				}
				elapsed, next = next[:n], elapsed
			}
			row := symbolicRow(p, func(r int) float64 {
				return float64(elapsed[u.ClassOf(r)]) / float64(iters)
			})
			row.Size = size
			rows = append(rows, row)
		}
		return nil
	})
	if err != nil {
		return nil, false
	}
	uniformRuns.Add(1)
	return rows, true
}

func growMicros(s []vtime.Micros, n int) []vtime.Micros {
	if cap(s) < n {
		return make([]vtime.Micros, n)
	}
	return s[:n]
}

// symbolicRow is reduceRow's aggregation over p ranks with local latencies
// lat(r), without messages: the avg/min/max row the fused OpMinSumMax
// Reduce rooted at rank 0 delivers. Every node of the binomial tree starts
// from its own value and folds in its children's subtree results smallest
// subtree first (the receive order of the per-rank Reduce, the reverse of
// collective.BinomialChildren), so the sum is associated exactly as there.
func symbolicRow(p int, lat func(r int) float64) stats.Row {
	var sub func(r, limit int) (lo, sum, hi float64)
	sub = func(r, limit int) (lo, sum, hi float64) {
		v := lat(r)
		lo, sum, hi = v, v, v
		for m := 1; m < limit && r+m < p; m <<= 1 {
			clo, csum, chi := sub(r+m, m)
			lo, sum, hi = math.Min(lo, clo), sum+csum, math.Max(hi, chi)
		}
		return lo, sum, hi
	}
	lo, sum, hi := sub(0, p)
	return stats.Row{AvgUs: sum / float64(p), MinUs: lo, MaxUs: hi}
}
