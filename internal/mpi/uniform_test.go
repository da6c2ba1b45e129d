package mpi

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/topology"
	"repro/internal/vtime"
)

func uniformTestWorld(t *testing.T, ranks, ppn int, cfg Config) *World {
	t.Helper()
	cluster, err := topology.ByName(topology.Frontera.Name)
	if err != nil {
		t.Fatal(err)
	}
	place, err := topology.NewPlacement(cluster, ranks, ppn, topology.Block, false)
	if err != nil {
		t.Fatal(err)
	}
	model, err := netmodel.New(cluster, netmodel.MVAPICH2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Placement, cfg.Model = place, model
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Release)
	return w
}

// TestUniformMatchesPerRankClocks drives the same call sequence — barriers,
// eager and rendezvous allreduces, allgather, alltoall — at class level and
// per rank on a fold-off event world, and requires every rank's clock to
// match bit for bit after every call, and Parent to name the class each
// rank came from. The 4096x2048 placement puts 2048 classes on the
// barrier, past the dense tables of the refinement and the transition
// interning, so the pair-table paths run too.
func TestUniformMatchesPerRankClocks(t *testing.T) {
	small := []Invocation{BarrierCall(),
		AllreduceCall(4, Float32, OpSum), AllreduceCall(4, Float32, OpSum),
		AllreduceCall(65536, Float32, OpSum), AllreduceCall(65536, Float32, OpSum),
		AllgatherCall(1024), AlltoallCall(16384), BarrierCall(), AllreduceCall(8192, Float64, OpMax)}
	// The per-rank oracle of O(p)-round collectives is quadratic: the
	// large placement keeps to barriers and allreduces.
	large := []Invocation{BarrierCall(), AllreduceCall(65536, Float32, OpSum),
		AllreduceCall(65536, Float32, OpSum), BarrierCall(), AllreduceCall(4, Float32, OpSum)}
	for _, pl := range [][2]int{{16, 4}, {64, 8}, {4096, 2048}} {
		ranks, ppn := pl[0], pl[1]
		calls := small
		if ranks > 64 {
			calls = large
		}
		// want[k][r] is rank r's clock after calls[k], per rank.
		want := make([][]vtime.Micros, len(calls))
		for k := range want {
			want[k] = make([]vtime.Micros, ranks)
		}
		oracle := uniformTestWorld(t, ranks, ppn, Config{Engine: EngineEvent, DisableFold: true})
		err := oracle.Run(func(p *Proc) error {
			c := p.CommWorld()
			for k, inv := range calls {
				var err error
				switch inv.key.coll {
				case collBarrier:
					err = c.Barrier()
				case CollAllreduce:
					err = c.AllreduceN(nil, nil, inv.key.n, inv.key.dt, inv.key.op)
				case CollAllgather:
					err = c.AllgatherN(nil, inv.key.n, nil)
				case CollAlltoall:
					err = c.AlltoallN(nil, inv.key.n, nil)
				}
				if err != nil {
					return err
				}
				want[k][p.Rank()] = p.Wtime()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		w := uniformTestWorld(t, ranks, ppn, Config{Engine: EngineEvent})
		maxClasses := 0
		err = w.RunUniform(func(u *Uniform) error {
			for k, inv := range calls {
				before := make([]int, ranks)
				for r := range before {
					before[r] = u.ClassOf(r)
				}
				if err := u.Invoke(inv); err != nil {
					return err
				}
				maxClasses = max(maxClasses, u.Classes())
				for r := 0; r < ranks; r++ {
					c := u.ClassOf(r)
					if got := u.Clock(c); got != want[k][r] {
						t.Fatalf("%dx%d call %d: rank %d clock %v, per rank %v", ranks, ppn, k, r, got, want[k][r])
					}
					if par := u.Parent(c); par != before[r] {
						t.Fatalf("%dx%d call %d: rank %d came from class %d, Parent says %d", ranks, ppn, k, r, before[r], par)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%dx%d: %v", ranks, ppn, err)
		}
		if ranks == 4096 && maxClasses <= 1024 {
			t.Errorf("4096x2048 peaked at %d classes, want more than 1024", maxClasses)
		}
	}
}

// TestUniformRefusals pins where the class-level path refuses: worlds
// the fold would not resolve, a call its *N entry would reject (6 bytes of
// float32), and shapes it cannot fold (a 6-rank allreduce folds its
// non-power-of-two remainder with sends instead of exchanges). A refused
// call leaves the state as it was.
func TestUniformRefusals(t *testing.T) {
	for name, cfg := range map[string]Config{
		"goroutine engine": {Engine: EngineGoroutine},
		"fold off":         {Engine: EngineEvent, DisableFold: true},
		"schedfold off":    {Engine: EngineEvent, DisableSchedFold: true},
	} {
		w := uniformTestWorld(t, 16, 4, cfg)
		if err := w.RunUniform(func(*Uniform) error { return nil }); !errors.Is(err, ErrNotUniform) {
			t.Errorf("%s: RunUniform = %v, want ErrNotUniform", name, err)
		}
	}
	w := uniformTestWorld(t, 16, 4, Config{Engine: EngineEvent})
	err := w.RunUniform(func(u *Uniform) error {
		if err := u.Invoke(AllreduceCall(64, Float32, OpSum)); err != nil {
			return err
		}
		n, clock := u.Classes(), u.Clock(0)
		for _, inv := range []Invocation{AllreduceCall(6, Float32, OpSum)} {
			if err := u.Invoke(inv); !errors.Is(err, ErrNotUniform) {
				t.Errorf("%+v: Invoke = %v, want ErrNotUniform", inv.key, err)
			}
		}
		if u.Classes() != n || u.Clock(0) != clock {
			t.Error("a refused call changed the class state")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	w6 := uniformTestWorld(t, 6, 2, Config{Engine: EngineEvent})
	err = w6.RunUniform(func(u *Uniform) error { return u.Prepare(AllreduceCall(64, Float32, OpSum)) })
	if !errors.Is(err, ErrNotUniform) {
		t.Errorf("6-rank allreduce: Prepare = %v, want ErrNotUniform", err)
	}
}

// TestPairTableInternsFirstSeen checks the refinement's interning table
// against a map: ids are dense and first-seen, across growth and reuse.
func TestPairTableInternsFirstSeen(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var tab pairTable
	for _, span := range []int32{3, 100, 5000} {
		tab.reset(1)
		ref := map[[2]int32]int32{}
		for i := 0; i < 20000; i++ {
			a, b := rng.Int31n(span), rng.Int31n(span)
			want, ok := ref[[2]int32{a, b}]
			if !ok {
				want = int32(len(ref))
				ref[[2]int32{a, b}] = want
			}
			if got := tab.intern(a, b); got != want {
				t.Fatalf("span %d: intern(%d, %d) = %d, want %d", span, a, b, got, want)
			}
		}
		if int(tab.n) != len(ref) {
			t.Fatalf("span %d: %d ids, want %d", span, tab.n, len(ref))
		}
	}
}
