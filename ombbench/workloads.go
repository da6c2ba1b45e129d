package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/pybuf"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/tune"
)

// outcome is what one pass produced: a digest of its outputs and how many
// operations (core.Run reports, /sweep requests) it attempted and saw fail.
type outcome struct {
	digest    string
	attempted int
	failed    int
}

// workload is one set of generated inputs and the calls that drive them
// through the program's public functions.
type workload struct {
	name string
	// seedFree marks workloads whose inputs do not depend on the seed, so
	// their stored digests apply at every seed.
	seedFree bool
	// pass runs the measured work once, recording spans under parent; tr
	// is nil on untraced passes.
	pass func(tr *tracer, parent int) (outcome, error)
	// probe, when set, runs after each traced pass, outside its timing,
	// and returns the root span of what it recorded.
	probe func(tr *tracer) (int, error)
	// layers derives the workload's per-layer metrics from one traced
	// pass (passSpan) and its probe (probeSpan, 0 without one).
	layers func(tr *tracer, passSpan, probeSpan int) map[string]float64
	// parity, when set, derives part of the latest pass's output through
	// another backend and reports any difference as an error.
	parity func() error
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"fold_huge", "paper_py", "tune_serve"}

func newWorkload(name string, seed uint64) (*workload, error) {
	switch name {
	case "fold_huge":
		return foldWorkload(), nil
	case "paper_py":
		return paperWorkload(), nil
	case "tune_serve":
		return tuneWorkload(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// digestReports hashes the stable report JSON of every report in order.
func digestReports(reps []*core.Report) (outcome, error) {
	h := sha256.New()
	o := outcome{attempted: len(reps)}
	for _, rep := range reps {
		if rep.Failure != nil {
			o.failed++
		}
		data, err := rep.MarshalJSON()
		if err != nil {
			return o, fmt.Errorf("encoding report: %w", err)
		}
		h.Write(data)
	}
	o.digest = hex.EncodeToString(h.Sum(nil))
	return o, nil
}

// foldRanks is fold_huge's world size. A 32Ki-rank pass costs ~2 s of CPU
// against ~4.3 s at 64Ki, with the same pass-to-pass spread (~10%), so a
// run times twice as many passes and its cold passes leave room in the
// run budget for a longer timed window.
const foldRanks = 32768

// foldWorkload is the BenchmarkEngineHugeWorld configuration: a
// timing-only allreduce sweep over 16-64 KiB on the event engine, folded,
// with ranks/16 per node. Its inputs do not depend on the seed.
func foldWorkload() *workload {
	opts := core.Options{
		Benchmark: core.Allreduce, Mode: core.ModeC,
		Ranks: foldRanks, PPN: foldRanks / 16, TimingOnly: true, Engine: "event",
		MinSize: 16 << 10, MaxSize: 64 << 10,
		Iters: 10, Warmup: 2, LargeIters: 5, LargeWarmup: 1,
	}
	sizes := stats.PowersOfTwo(opts.MinSize, opts.MaxSize)
	// Every sweep size is at or above core's default 8 KiB large-message
	// threshold, so core runs LargeWarmup+LargeIters calls per size.
	perSize := opts.LargeWarmup + opts.LargeIters
	calls := len(sizes) * perSize
	return &workload{
		name: "fold_huge", seedFree: true,
		pass: func(tr *tracer, parent int) (outcome, error) {
			id := tr.begin("core.Run", "", parent)
			rep, err := core.Run(opts)
			tr.end(id)
			if err != nil {
				return outcome{attempted: 1, failed: 1}, err
			}
			return digestReports([]*core.Report{rep})
		},
		probe: func(tr *tracer) (int, error) { return replay(tr, opts, sizes, perSize) },
		layers: func(tr *tracer, passSpan, probeSpan int) map[string]float64 {
			run := tr.childrenOf(passSpan)[0]
			rp := tr.get(probeSpan)
			kids := tr.childrenOf(probeSpan) // NewWorld, World.Run, World.Release
			m := map[string]float64{
				"core.harness_s":       run.dur() - rp.dur(),
				"mpi.world_new_s":      kids[0].dur(),
				"mpi.engine_s":         kids[1].dur(),
				"mpi.world_release_s":  kids[2].dur(),
				"mpi.rank_colls_per_s": float64(foldRanks*calls) / kids[1].dur(),
			}
			for k, v := range rp.Attrs {
				m[k] = v
			}
			return m
		},
	}
}

// replay issues the sweep's collective calls on a bare world — NewWorld,
// World.Run, World.Release — without core's per-size barrier, clock reset
// or row reduction. core.Run minus the replay is the harness's cost.
func replay(tr *tracer, o core.Options, sizes []int, perSize int) (int, error) {
	root := tr.begin("replay", "", 0)
	defer tr.end(root)
	cluster, err := topology.ByName(topology.Frontera.Name)
	if err != nil {
		return root, err
	}
	place, err := topology.NewPlacement(cluster, o.Ranks, o.PPN, topology.Block, false)
	if err != nil {
		return root, err
	}
	model, err := netmodel.New(cluster, netmodel.MVAPICH2)
	if err != nil {
		return root, err
	}
	id := tr.begin("mpi.NewWorld", "", root)
	world, err := mpi.NewWorld(mpi.Config{Placement: place, Model: model, Engine: mpi.EngineEvent})
	tr.end(id)
	if err != nil {
		return root, err
	}
	id = tr.begin("mpi.World.Run", "", root)
	err = world.Run(func(p *mpi.Proc) error {
		c := p.CommWorld()
		for _, n := range sizes {
			for i := 0; i < perSize; i++ {
				if err := c.AllreduceN(nil, nil, n, mpi.Float32, mpi.OpSum); err != nil {
					return err
				}
			}
		}
		return nil
	})
	tr.end(id)
	fs, ss := world.FoldStats(), world.SchedFoldStats()
	id = tr.begin("mpi.World.Release", "", root)
	world.Release()
	tr.end(id)
	for k, v := range map[string]int64{
		"mpi.fold.folded":                fs.Folded,
		"mpi.fold.fallback":              fs.Fallback,
		"mpi.fold.released":              fs.Released,
		"mpi.schedfold.gather_hits":      ss.GatherHits,
		"mpi.schedfold.fallbacks":        ss.Fallbacks,
		"mpi.schedfold.classes_compiled": ss.ClassesCompiled,
		"mpi.schedfold.struct_hits":      ss.StructHits,
	} {
		tr.attr(root, k, float64(v))
	}
	if tried := ss.GatherHits + ss.Fallbacks; tried > 0 {
		tr.attr(root, "mpi.schedfold.hit_ratio", float64(ss.GatherHits)/float64(tried))
	}
	return root, err
}

// paperConfig is one paper_py configuration, tagged "<benchmark>/<mode>".
type paperConfig struct {
	tag  string
	opts core.Options
}

// paperMin and paperMax bound every paper_py sweep to the first three
// rendezvous sizes. The paper's figures run osu_bw to 4 MiB and the
// collectives to 1 MiB; payload copies and pickling scale with bytes, so
// the full range costs ~30 s of CPU per pass on a 2-vCPU host against
// ~1.5 s at 16-64 KiB, and osu_bw's pickle mode alone swung 15% between
// passes.
const paperMin, paperMax = 16 << 10, 64 << 10

// paperConfigs is the paper's traffic with payloads carried: osu_bw
// between two nodes, allreduce and allgather at 16x1 in every mode the
// registry allows, and the CuPy allreduce on Bridges-2's 16 GPUs.
func paperConfigs() []paperConfig {
	var out []paperConfig
	for _, b := range []struct {
		bench core.Benchmark
		ranks int
	}{{core.Bandwidth, 2}, {core.Allreduce, 16}, {core.Allgather, 16}} {
		spec, err := core.LookupBenchmark(string(b.bench))
		if err != nil {
			panic(err) // the built-in registry always has these
		}
		for _, m := range []struct {
			mode core.Mode
			name string
		}{{core.ModeC, "c"}, {core.ModePy, "py"}, {core.ModePickle, "pickle"}} {
			if !spec.SupportsMode(m.mode) {
				continue
			}
			out = append(out, paperConfig{tag: string(b.bench) + "/" + m.name, opts: core.Options{
				Benchmark: b.bench, Mode: m.mode, Buffer: pybuf.NumPy,
				Ranks: b.ranks, PPN: 1, MinSize: paperMin, MaxSize: paperMax,
			}})
		}
	}
	out = append(out, paperConfig{tag: "allreduce/gpu", opts: core.Options{
		Benchmark: core.Allreduce, Cluster: topology.Bridges2.Name, Mode: core.ModePy,
		Buffer: pybuf.CuPy, UseGPU: true, Ranks: 16, PPN: 8,
		MinSize: paperMin, MaxSize: paperMax,
	}})
	return out
}

func paperWorkload() *workload {
	cfgs := paperConfigs()
	return &workload{
		name: "paper_py", seedFree: true,
		pass: func(tr *tracer, parent int) (outcome, error) {
			reps := make([]*core.Report, 0, len(cfgs))
			for _, c := range cfgs {
				id := tr.begin("core.Run", c.tag, parent)
				rep, err := core.Run(c.opts)
				tr.end(id)
				if err != nil {
					return outcome{attempted: len(reps) + 1, failed: 1}, fmt.Errorf("%s: %w", c.tag, err)
				}
				reps = append(reps, rep)
			}
			return digestReports(reps)
		},
		layers: func(tr *tracer, passSpan, _ int) map[string]float64 {
			d := map[string]float64{}
			for _, s := range tr.childrenOf(passSpan) {
				d[s.Tag] = s.dur()
			}
			m := map[string]float64{"device.gpu_s": d["allreduce/gpu"]}
			for _, b := range []core.Benchmark{core.Bandwidth, core.Allreduce, core.Allgather} {
				c, py := d[string(b)+"/c"], d[string(b)+"/py"]
				m["mpi4py.binding_s"] += py - c
				if pk, ok := d[string(b)+"/pickle"]; ok {
					m["pickle.serialize_s"] += pk - py
				}
			}
			return m
		},
	}
}

// tuneSearches is how many searches one tune_serve pass runs. A single
// search's cost swings ~13% with its seed (which probes miss decides how
// many worlds get simulated); eight searches with seeds derived from the
// workload seed average that out.
const tuneSearches = 8

// tuneConfig is one tune_serve search: 300 iterations over placements
// 16x1 and 32x8, three collectives and 1-64 KiB, one tuner worker.
func tuneConfig(seed uint64) tune.Config {
	var sizes []int
	for s := 1 << 10; s <= 64<<10; s <<= 1 {
		sizes = append(sizes, s)
	}
	return tune.Config{
		Seed: seed, Iterations: 300,
		Placements:  []tune.Placement{{Ranks: 16, PPN: 1}, {Ranks: 32, PPN: 8}},
		Collectives: []mpi.Collective{mpi.CollBcast, mpi.CollAllreduce, mpi.CollAlltoall},
		Sizes:       sizes,
		Workers:     1,
	}
}

// tuneSeed is the seed of search i of a pass at the workload seed.
func tuneSeed(seed uint64, i int) uint64 { return seed*tuneSearches + uint64(i) }

// timedEvaluator wraps the tuner's evaluator: it counts calls and errors
// on every pass and records one span per probe on traced passes, tagged
// by the cache path that answered.
type timedEvaluator struct {
	inner  tune.Evaluator
	tr     *tracer
	parent int
	mu     sync.Mutex
	calls  int
	errs   int
}

func (e *timedEvaluator) Evaluate(ctx context.Context, opts core.Options) (tune.EvalResult, error) {
	id := e.tr.begin("tune.Evaluate", "", e.parent)
	r, err := e.inner.Evaluate(ctx, opts)
	e.tr.end(id)
	tag := "miss"
	switch {
	case err != nil:
		tag = "error"
	case r.Cached:
		tag = "hit"
	}
	e.tr.setTag(id, tag)
	e.mu.Lock()
	e.calls++
	if err != nil {
		e.errs++
	}
	e.mu.Unlock()
	return r, err
}

// writeTune appends a search's table and provenance to a digest.
func writeTune(h hash.Hash, res *tune.Result) error {
	table, err := res.TableJSON()
	if err != nil {
		return err
	}
	prov, err := res.ProvenanceJSON()
	if err != nil {
		return err
	}
	h.Write(table)
	h.Write(prov)
	return nil
}

func tuneWorkload(seed uint64) *workload {
	var firstDigest string // the latest pass's first search, as served over HTTP
	return &workload{
		name: "tune_serve",
		pass: func(tr *tracer, parent int) (outcome, error) {
			h := sha256.New()
			var o outcome
			for i := 0; i < tuneSearches; i++ {
				res, so, err := tuneOverHTTP(tr, parent, tuneSeed(seed, i))
				o.attempted += so.attempted
				o.failed += so.failed
				if err == nil {
					err = writeTune(h, res)
				}
				if err != nil {
					return o, fmt.Errorf("search %d: %w", i, err)
				}
				if i == 0 {
					firstDigest = hex.EncodeToString(h.Sum(nil))
				}
			}
			o.digest = hex.EncodeToString(h.Sum(nil))
			return o, nil
		},
		layers: func(tr *tracer, passSpan, _ int) map[string]float64 {
			var hit, miss []float64
			var missS, runS, selfS, evals, hits, coalesced, shed float64
			requests := 0
			for _, run := range tr.childrenOf(passSpan) {
				runS += run.dur()
				selfS += tr.selfTime(run.ID)
				evals += run.Attrs["tune.evaluations"]
				hits += run.Attrs["serve.cache_hits"]
				coalesced += run.Attrs["serve.coalesced"]
				shed += run.Attrs["serve.shed"]
				for _, s := range tr.childrenOf(run.ID) {
					requests++
					switch s.Tag {
					case "hit":
						hit = append(hit, s.dur()*1e3)
					case "miss":
						miss = append(miss, s.dur()*1e3)
						missS += s.dur()
					}
				}
			}
			return map[string]float64{
				"serve.requests":    float64(requests),
				"serve.hit_ratio":   hits / float64(requests),
				"serve.coalesced":   coalesced,
				"serve.shed":        shed,
				"serve.hit_p50_ms":  percentile(hit, 50),
				"serve.hit_p90_ms":  percentile(hit, 90),
				"serve.miss_p50_ms": percentile(miss, 50),
				"serve.miss_p90_ms": percentile(miss, 90),
				"serve.miss_s":      missS,
				"tune.evaluations":  evals,
				"tune.evals_per_s":  evals / runS,
				"tune.self_s":       selfS,
			}
		},
		// The latest pass's first search, repeated in process with the
		// default CoreEvaluator: the table and provenance must not depend
		// on the evaluator backend.
		parity: func() error {
			h := sha256.New()
			res, err := tune.Run(context.Background(), tuneConfig(tuneSeed(seed, 0)))
			if err == nil {
				err = writeTune(h, res)
			}
			if err != nil {
				return err
			}
			if d := hex.EncodeToString(h.Sum(nil)); d != firstDigest {
				return fmt.Errorf("in-process search digest %s, over HTTP %s", d, firstDigest)
			}
			return nil
		},
	}
}

// tuneOverHTTP runs one search against a fresh in-process tuning service
// on a loopback listener: one server worker, one tuner worker, one
// connection, closed loop. A fresh service per search keeps each search's
// cache hits, and so its provenance, independent of the searches before.
func tuneOverHTTP(tr *tracer, parent int, seed uint64) (*tune.Result, outcome, error) {
	svc := serve.NewServer(serve.Config{Workers: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, outcome{attempted: 1, failed: 1}, err
	}
	srv := &http.Server{Handler: svc.Handler()}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	transport := &http.Transport{MaxConnsPerHost: 1}
	defer transport.CloseIdleConnections()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			svc.CancelInFlight()
			_ = srv.Close()
		}
		<-served
	}()

	ev := &timedEvaluator{
		inner: &tune.ServeEvaluator{Client: &serve.Client{
			BaseURL:    "http://" + ln.Addr().String(),
			HTTPClient: &http.Client{Transport: transport},
		}},
		tr: tr,
	}
	cfg := tuneConfig(seed)
	cfg.Evaluator = ev
	id := tr.begin("tune.Run", fmt.Sprint("seed=", seed), parent)
	ev.parent = id
	res, err := tune.Run(context.Background(), cfg)
	tr.end(id)
	ev.mu.Lock()
	o := outcome{attempted: ev.calls, failed: ev.errs}
	ev.mu.Unlock()
	if err != nil {
		o.failed = max(o.failed, 1)
		return nil, o, err
	}
	st := svc.Snapshot()
	tr.attr(id, "serve.cache_hits", float64(st.CacheHits))
	tr.attr(id, "serve.coalesced", float64(st.Coalesced))
	tr.attr(id, "serve.shed", float64(st.Shed))
	tr.attr(id, "tune.evaluations", float64(res.Provenance.Evaluations))
	if st.Panics > 0 {
		return nil, o, errors.New("tuning service recovered a panic")
	}
	return res, o, nil
}

// percentile is the nearest-rank percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(k, 0)]
}
