package core

import (
	"testing"

	"repro/internal/mpi"
)

// classOracle runs opts on the class-level harness (fold on) and on the
// per-rank NoFold oracle and returns both outcomes as report JSON (or the
// error text), plus whether the folded run took the class path.
func classOracle(t *testing.T, opts Options) (got, want string, class bool) {
	t.Helper()
	render := func(o Options) string {
		rep, err := Run(o)
		if err != nil {
			return "error: " + err.Error()
		}
		data, err := rep.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	before := uniformRuns.Load()
	got = render(opts)
	class = uniformRuns.Load() > before
	oracle := opts
	oracle.NoFold = true
	want = render(oracle)
	return got, want, class
}

// parityOptions is a short timing-only C-mode sweep over sizes on both
// sides of the eager/rendezvous boundary and the algorithm thresholds.
func parityOptions(b Benchmark, ranks, ppn int, forced string) Options {
	o := Options{Benchmark: b, Mode: ModeC, Ranks: ranks, PPN: ppn,
		TimingOnly: true, Engine: "event",
		Sizes: []int{4, 4096, 65536}, Iters: 3, Warmup: 1, LargeIters: 2, LargeWarmup: 1}
	if forced != "" {
		o.Algorithms = map[string]string{string(b.spec().Algo): forced}
	}
	return o
}

// TestClassHarnessParity pins the class-level harness byte for byte against
// the per-rank NoFold oracle: every runCollective-bodied registry
// collective under every registered algorithm of its collective (and the
// default selection) on power-of-two placements up to 1024x64 and on the
// non-power-of-two 63x7 and 96x8, where some shapes fold (ring and Bruck
// allgather, Bruck alltoall, the barrier) and the rest refuse. Named
// refusals must run the per-rank path: allreduce at non-power-of-two
// worlds, recursive doubling and pairwise forced there (alone and in a
// mix of forced algorithms), and collectives without a class-level entry.
func TestClassHarnessParity(t *testing.T) {
	placements := [][2]int{{16, 1}, {8, 4}, {63, 7}, {96, 8}, {64, 8}, {1024, 64}}
	if testing.Short() {
		placements = placements[:5]
	}
	classRuns := 0
	for _, name := range Benchmarks() {
		spec := name.spec()
		if spec.loop == "" {
			continue
		}
		forced := []string{""}
		if spec.Algo != "" {
			forced = append(forced, mpi.AlgorithmNames(spec.Algo)...)
		}
		_, entry := uniformInvocation(name, 4, mpi.Float32)
		for _, pl := range placements {
			huge := pl[0] > 96
			if huge && !entry {
				// Refused up front: both sides run per rank, which the
				// fold parity suites of internal/mpi already pin at scale.
				continue
			}
			for _, alg := range forced {
				opts := parityOptions(name, pl[0], pl[1], alg)
				if huge {
					// The oracle runs O(p)-step algorithms per rank: one
					// large size keeps the row affordable.
					opts.Sizes, opts.LargeIters = []int{65536}, 1
				}
				got, want, class := classOracle(t, opts)
				if got != want {
					t.Errorf("%s/%s %dx%d: class harness diverged from the per-rank oracle\nclass:    %s\nper-rank: %s",
						name, alg, pl[0], pl[1], got, want)
				}
				if class {
					classRuns++
					if !entry {
						t.Errorf("%s took the class path without a class-level entry", name)
					}
				}
			}
		}
	}
	if classRuns == 0 {
		t.Fatal("no configuration took the class path; the suite compared per-rank runs only")
	}

	mix := parityOptions(Allgather, 96, 8, "")
	mix.Algorithms = map[string]string{"allgather": "recursive_doubling",
		"allreduce": "rabenseifner", "alltoall": "bruck"}
	refusals := []Options{
		parityOptions(Allreduce, 63, 7, ""),
		parityOptions(Allreduce, 96, 8, ""),
		parityOptions(Allgather, 96, 8, "recursive_doubling"),
		parityOptions(Alltoall, 63, 7, "pairwise"),
		mix,
		parityOptions(Bcast, 64, 8, "scatter_ring"),
		parityOptions(Reduce, 64, 8, ""),
	}
	for _, opts := range refusals {
		got, want, class := classOracle(t, opts)
		if class {
			t.Errorf("%s %dx%d %v: took the class path, want the per-rank refusal",
				opts.Benchmark, opts.Ranks, opts.PPN, opts.Algorithms)
		}
		if got != want {
			t.Errorf("%s %dx%d: refused run diverged from the oracle\ngot:  %s\nwant: %s",
				opts.Benchmark, opts.Ranks, opts.PPN, got, want)
		}
	}
}

// TestClassHarnessTakesFoldedAllreduce pins that the configurations the
// harness exists for do take it: a power-of-two allreduce sweep with the
// default selection, and that anything else in the eligibility list
// (Py mode, payloads, goroutine engine, fold off) does not.
func TestClassHarnessTakesFoldedAllreduce(t *testing.T) {
	base := parityOptions(Allreduce, 64, 8, "")
	cases := []struct {
		name  string
		edit  func(*Options)
		class bool
	}{
		{"folded", func(*Options) {}, true},
		{"py", func(o *Options) { o.Mode = ModePy }, false},
		{"payload", func(o *Options) { o.TimingOnly, o.Engine = false, "goroutine" }, false},
		{"goroutine", func(o *Options) { o.Engine = "goroutine" }, false},
		{"nofold", func(o *Options) { o.NoFold = true }, false},
		{"noschedfold", func(o *Options) { o.NoSchedFold = true }, false},
		{"faults", func(o *Options) { o.Faults = "noise:sigma=1us; seed:3" }, false},
	}
	for _, tc := range cases {
		opts := base
		tc.edit(&opts)
		before := uniformRuns.Load()
		if _, err := Run(opts); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if class := uniformRuns.Load() > before; class != tc.class {
			t.Errorf("%s: class path taken = %v, want %v", tc.name, class, tc.class)
		}
	}
}

// TestClassHarnessSmoke16Ki is the race-smoke gate for the class-level
// harness at scale: the huge-world allreduce sweep at 16384 ranks must take
// the class path and match the per-rank fold-off oracle byte for byte. 16Ki
// is where the barrier partition reaches a thousand classes; a shortened
// iteration count keeps the per-rank oracle affordable.
func TestClassHarnessSmoke16Ki(t *testing.T) {
	if testing.Short() {
		t.Skip("16384-rank per-rank oracle in -short mode")
	}
	opts := Options{Benchmark: Allreduce, Mode: ModeC, Ranks: 16384, PPN: 1024,
		TimingOnly: true, Engine: "event", MinSize: 16 << 10, MaxSize: 64 << 10,
		Iters: 10, Warmup: 2, LargeIters: 2, LargeWarmup: 1}
	got, want, class := classOracle(t, opts)
	if !class {
		t.Error("the 16384-rank sweep refused the class path")
	}
	if got != want {
		t.Errorf("class harness diverged from the fold-off oracle:\nclass:    %s\nfold-off: %s", got, want)
	}
}
