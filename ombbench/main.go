// Command ombbench is the repository's benchmark. It drives one workload
// through the public functions of internal/core, internal/mpi,
// internal/serve and internal/tune, checks every output, and prints one
// JSON result line as the last line of standard output.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	ombbench --workload fold_huge --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured on untraced
// passes; with --trace 1 it reports the per-layer metrics from traced
// passes that alternate with untraced ones. NOTES.md explains the
// workloads and what each metric should move.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/mpi"
)

const (
	// defaultSeed is the seed the stored digests were recorded at.
	defaultSeed = 1
	// setupSamples is how many fresh processes measure the cold pass:
	// this one plus setupSamples-1 children.
	setupSamples = 3
	// minPasses is the fewest warm passes a run times, whatever --seconds.
	minPasses = 2
	// spanDir is where traced runs write their spans, relative to the
	// repository root the benchmark runs from.
	spanDir = ".bench_build/spans"
)

// storedDigestsJSON maps workload name to the digest of its outputs at
// defaultSeed; they pin the program's outputs across changes.
//
//go:embed digests.json
var storedDigestsJSON []byte

type metricDef struct{ name, unit string }

// perLayer lists the metrics a traced run prints, in BENCHMARK.json order.
var perLayer = []metricDef{
	{"core.harness_s", "s"},
	{"mpi.world_new_s", "s"}, {"mpi.engine_s", "s"}, {"mpi.world_release_s", "s"},
	{"mpi.rank_colls_per_s", "1/s"},
	{"mpi.fold.folded", "count"}, {"mpi.fold.fallback", "count"}, {"mpi.fold.released", "count"},
	{"mpi.schedfold.gather_hits", "count"}, {"mpi.schedfold.fallbacks", "count"},
	{"mpi.schedfold.classes_compiled", "count"}, {"mpi.schedfold.struct_hits", "count"},
	{"mpi.schedfold.hit_ratio", "ratio"}, {"mpi.cache_overflows", "count"},
	{"pickle.serialize_s", "s"}, {"mpi4py.binding_s", "s"}, {"device.gpu_s", "s"},
	{"serve.requests", "count"}, {"serve.hit_ratio", "ratio"},
	{"serve.coalesced", "count"}, {"serve.shed", "count"},
	{"serve.hit_p50_ms", "ms"}, {"serve.hit_p90_ms", "ms"},
	{"serve.miss_p50_ms", "ms"}, {"serve.miss_p90_ms", "ms"}, {"serve.miss_s", "s"},
	{"tune.evaluations", "count"}, {"tune.evals_per_s", "1/s"}, {"tune.self_s", "s"},
	{"gc.cycles", "count"}, {"gc.cpu_s", "s"},
	{"trace.run_s", "s"}, {"trace.overhead_s", "s"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", 20, "how long to time warm passes")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced passes")
	setupChild := flag.Bool("setup-child", false, "run one cold pass and print its time (used by the parent run)")
	flag.Parse()

	w, err := newWorkload(*name, *seed)
	if err == nil && (*trace != 0 && *trace != 1 || *seconds < 1) {
		err = fmt.Errorf("--trace must be 0 or 1 and --seconds at least 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ombbench:", err)
		os.Exit(2)
	}
	ck, err := newChecker(w, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ombbench:", err)
		os.Exit(2)
	}
	if *setupChild {
		os.Exit(runSetupChild(w))
	}
	logf("host: nproc=%d GOMAXPROCS=%d go=%s cpu=%q", host.NProc, host.GOMAXPROCS, host.Go, host.CPU)
	budget := time.Duration(*seconds) * time.Second
	var metrics map[string]metric
	if *trace == 1 {
		metrics, err = runTraced(w, ck, *seed, budget)
	} else {
		metrics, err = runTimed(w, ck, *seed, budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ombbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(result{
		Correct: ck.failed == 0, Attempted: ck.attempted, Failed: ck.failed, Metrics: metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ombbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ombbench: "+format+"\n", args...)
}

// checker counts attempted and failed operations and holds the digest
// every pass must reproduce.
type checker struct {
	want      string // the stored digest when it applies, else the cold pass's
	attempted int
	failed    int
}

func newChecker(w *workload, seed uint64) (*checker, error) {
	var stored map[string]string
	if err := json.Unmarshal(storedDigestsJSON, &stored); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	ck := &checker{}
	if w.seedFree || seed == defaultSeed {
		ck.want = stored[w.name]
		if ck.want == "" {
			return nil, fmt.Errorf("digests.json has no digest for %s", w.name)
		}
	}
	return ck, nil
}

// check accounts one pass. A pass whose outputs cannot be trusted — an
// error, a digest that differs from the reference, or a timed pass during
// which a cross-world cache overflowed (it measured cache thrashing) —
// counts all its operations as failed.
func (c *checker) check(label string, o outcome, err error, overflowed bool) {
	if c.want == "" && err == nil {
		c.want = o.digest // the cold pass sets the reference at other seeds
	}
	switch {
	case err != nil:
		c.account(label, o, err.Error())
	case o.digest != c.want:
		c.account(label, o, fmt.Sprintf("output digest %s, want %s", o.digest, c.want))
	case overflowed:
		c.account(label, o, "a cross-world cache overflowed during the timed pass")
	default:
		c.account(label, o, "")
	}
}

// account adds one checked pass; a non-empty problem fails all of it.
func (c *checker) account(label string, o outcome, problem string) {
	if o.attempted == 0 {
		o.attempted = 1
	}
	if problem != "" {
		logf("%s FAILED: %s", label, problem)
		o.failed = o.attempted
	}
	c.attempted += o.attempted
	c.failed += o.failed
}

// childReport is what a --setup-child process prints.
type childReport struct {
	SetupS    float64 `json:"setup_s"`
	Digest    string  `json:"digest"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Err       string  `json:"err,omitempty"`
}

func runSetupChild(w *workload) int {
	t := cpuNow()
	o, err := w.pass(nil, 0)
	r := childReport{SetupS: cpuNow() - t, Digest: o.digest, Attempted: o.attempted, Failed: o.failed}
	if err != nil {
		r.Err = err.Error()
	}
	if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
		fmt.Fprintln(os.Stderr, "ombbench:", err)
		return 1
	}
	return 0
}

// coldInChild runs one cold pass in a fresh process of this binary.
func coldInChild(w *workload, seed uint64) (childReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return childReport{}, err
	}
	cmd := exec.Command(exe, "--setup-child", "--workload", w.name, "--seed", fmt.Sprint(seed))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return childReport{}, fmt.Errorf("setup child: %w", err)
	}
	var r childReport
	if err := json.Unmarshal(out, &r); err != nil {
		return childReport{}, fmt.Errorf("setup child output %q: %w", out, err)
	}
	return r, nil
}

// runTimed measures the end-to-end metrics: setup_s is the median cold
// pass over setupSamples fresh processes; the other three are medians over
// the warm passes that fit in budget, run_s scaled to the reference core
// speed (refLoopS over the reference loop's median reading).
func runTimed(w *workload, ck *checker, seed uint64, budget time.Duration) (map[string]metric, error) {
	// The children run first, while this process is still small: a
	// fold_huge process retains ~470 MB of pooled heap.
	var setups []float64
	var children []childReport
	for i := 1; i < setupSamples; i++ {
		r, err := coldInChild(w, seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.SetupS)
		children = append(children, r)
	}
	t, wall := cpuNow(), time.Now()
	o, err := w.pass(nil, 0)
	setups = append(setups, cpuNow()-t)
	logf("cold pass: %.3fs CPU (%.3fs wall), digest %s", setups[len(setups)-1], time.Since(wall).Seconds(), o.digest)
	ck.check("cold pass", o, err, false)
	for i, r := range children {
		var cerr error
		if r.Err != "" {
			cerr = fmt.Errorf("%s", r.Err)
		}
		logf("cold pass in child %d: %.3fs CPU", i+1, r.SetupS)
		ck.check(fmt.Sprintf("child %d cold pass", i+1),
			outcome{digest: r.Digest, attempted: r.Attempted, failed: r.Failed}, cerr, false)
	}

	warmUp(w, ck)

	var runs, allocs, retained []float64
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	// The reference loop is timed before the first warm pass and after
	// every one, outside their timing; its median reads the core speed the
	// host gave this run.
	refs := []float64{refLoop()}
	start := time.Now()
	for i := 1; len(runs) < minPasses || time.Since(start) < budget; i++ {
		before := ms
		ov := mpi.CacheOverflowCount()
		t, wall := cpuNow(), time.Now()
		o, err := w.pass(nil, 0)
		d := cpuNow() - t
		wallS := time.Since(wall).Seconds()
		overflowed := mpi.CacheOverflowCount() != ov
		runtime.ReadMemStats(&ms)
		alloc := float64(ms.TotalAlloc-before.TotalAlloc) / 1e6
		gcs := ms.NumGC - before.NumGC
		runtime.GC()
		runtime.ReadMemStats(&ms)
		live := float64(ms.HeapAlloc) / 1e6
		logf("warm pass %d: %.3fs CPU (%.3fs wall), %d GC cycles, %.1f MB allocated, %.1f MB retained",
			i, d, wallS, gcs, alloc, live)
		ck.check(fmt.Sprintf("warm pass %d", i), o, err, overflowed)
		refs = append(refs, refLoop())
		runs = append(runs, d)
		allocs = append(allocs, alloc)
		retained = append(retained, live)
	}
	if w.parity != nil {
		problem := ""
		if err := w.parity(); err != nil {
			problem = err.Error()
		}
		ck.account("backend parity", outcome{attempted: 1}, problem)
	}
	speed := refLoopS / median(refs)
	logf("reference loop: median %.4fs CPU over %d readings, core speed %.3f of reference; uncorrected run_s %.4fs",
		median(refs), len(refs), speed, median(runs))
	return map[string]metric{
		"setup_s":          {median(setups), "s"},
		"run_s":            {median(runs) * speed, "s"},
		"alloc_mb_per_run": {median(allocs), "MB"},
		"retained_heap_mb": {median(retained), "MB"},
	}, nil
}

// warmUp runs one checked, untimed pass after the cold one: the first
// warm pass still fills process-wide caches (on a 2048-rank sweep with
// both folds off it ran ~10% slower than the rest), and users of a
// long-lived process do not pay that on every run.
func warmUp(w *workload, ck *checker) {
	o, err := w.pass(nil, 0)
	ck.check("warm-up pass", o, err, false)
}

// runTraced measures the per-layer metrics. After an untraced cold pass it
// alternates untraced and traced passes until budget is spent; each
// per-layer metric is the median over the traced passes, and the tracing
// overhead is the traced pass's median time minus the untraced one's.
func runTraced(w *workload, ck *checker, seed uint64, budget time.Duration) (map[string]metric, error) {
	tr := newTracer()
	o, err := w.pass(nil, 0)
	ck.check("cold pass", o, err, false)
	warmUp(w, ck)
	var plain, traced []float64
	var layers []map[string]float64
	start := time.Now()
	for i := 1; i <= 2 || time.Since(start) < budget; i++ {
		runtime.GC()
		t := cpuNow()
		o, err := w.pass(nil, 0)
		plain = append(plain, cpuNow()-t)
		ck.check(fmt.Sprintf("untraced pass %d", i), o, err, false)

		runtime.GC()
		tr.nextPass()
		ov := mpi.CacheOverflowCount()
		root := tr.begin("pass", w.name, 0)
		o, err = w.pass(tr, root)
		tr.end(root)
		probe := 0
		if err == nil && w.probe != nil {
			probe, err = w.probe(tr)
		}
		overflows := mpi.CacheOverflowCount() - ov
		ck.check(fmt.Sprintf("traced pass %d", i), o, err, overflows > 0)
		if err != nil {
			continue
		}
		s := tr.get(root)
		m := w.layers(tr, root, probe)
		m["gc.cycles"] = float64(s.GCCycles)
		m["gc.cpu_s"] = s.GCCPU
		m["mpi.cache_overflows"] = float64(overflows)
		logf("traced pass %d: %.3fs CPU (untraced %.3fs), %d GC cycles", i, s.dur(), plain[len(plain)-1], s.GCCycles)
		traced = append(traced, s.dur())
		layers = append(layers, m)
	}
	if len(layers) == 0 {
		return nil, fmt.Errorf("no traced pass completed")
	}
	out := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		vals := make([]float64, len(layers))
		for i, m := range layers {
			vals[i] = m[d.name] // 0 where the layer is not on this workload's path
		}
		out[d.name] = metric{median(vals), d.unit}
	}
	out["trace.run_s"] = metric{median(traced), "s"}
	out["trace.overhead_s"] = metric{median(traced) - median(plain), "s"}
	path := fmt.Sprintf("%s/%s-seed%d.json", spanDir, w.name, seed)
	if err := tr.write(path, w.name, seed); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	logf("spans written to %s", path)
	return out, nil
}

// refLoopIters sizes the integer loop timed between warm passes to read
// the speed the host gives this core, which drifts for minutes at a time
// and moves every pass of a run with it. refLoopS is the loop's median CPU
// time on the measurement host: run_s reads as a pass's CPU seconds at
// that speed.
const (
	refLoopIters = 30_000_000
	refLoopS     = 0.080
)

var refSink uint64

// refLoop times a fixed integer loop that touches no memory and returns
// its CPU time. It runs none of the program's code, so it reads the host's
// speed and never the program's.
func refLoop() float64 {
	t := cpuNow()
	x := refSink | 1
	for range refLoopIters {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 13
	}
	refSink = x
	return cpuNow() - t
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// hostFacts are logged by every run and written with its spans.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
}

var host = hostFacts{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel()}

// cpuModel reads the CPU model name from /proc/cpuinfo ("" elsewhere).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
