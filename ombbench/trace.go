package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// cpuNow is the process's CPU time in seconds: user plus system, over all
// threads. The benchmark times work in CPU time because wall time on a
// shared virtual host also counts the intervals the hypervisor gives the
// vCPU to other guests (steal time), which swung single passes by up to
// 50% while their CPU time held within ~10% (see NOTES.md).
func cpuNow() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// gcSample is a point reading of the collector's cumulative counters.
type gcSample struct {
	cycles uint64
	cpuS   float64
}

var gcMetricNames = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

// readGC reads the collector counters through runtime/metrics, which does
// not stop the world (unlike runtime.ReadMemStats), so it is cheap enough
// to take at every span boundary.
func readGC() gcSample {
	s := make([]metrics.Sample, len(gcMetricNames))
	copy(s, gcMetricNames)
	metrics.Read(s)
	return gcSample{cycles: s[0].Value.Uint64(), cpuS: s[1].Value.Float64()}
}

// span is one timed call into a layer: name, start, end, the span that
// caused it, and the traced pass it belongs to (shared by every span of
// the pass). Start and End are wall seconds since the tracer was created,
// for the timeline; CPUStart and CPUEnd are process CPU seconds, which
// durations use.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Pass     int                `json:"pass"`
	Name     string             `json:"name"`
	Tag      string             `json:"tag,omitempty"`
	Start    float64            `json:"start_s"`
	End      float64            `json:"end_s"`
	CPUStart float64            `json:"cpu_start_s"`
	CPUEnd   float64            `json:"cpu_end_s"`
	GCCycles uint64             `json:"gc_cycles"`
	GCCPU    float64            `json:"gc_cpu_s"`
	Attrs    map[string]float64 `json:"attrs,omitempty"`
	gc0      gcSample
	children []int
}

func (s *span) dur() float64 { return s.CPUEnd - s.CPUStart }

// tracer keeps spans in memory; write dumps them at exit. A nil *tracer is
// the untraced mode: nextPass, begin, end, attr and setTag are no-ops on
// it, so the timed passes run the same code without recording anything.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	pass  int
	spans []*span // spans[id-1]
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// nextPass starts a new pass id for the spans that follow.
func (t *tracer) nextPass() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.pass++
	t.mu.Unlock()
}

// begin opens a span under parent (0 for a root span) and returns its id.
func (t *tracer) begin(name, tag string, parent int) int {
	if t == nil {
		return 0
	}
	gc := readGC()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &span{ID: len(t.spans) + 1, Parent: parent, Pass: t.pass, Name: name, Tag: tag, gc0: gc}
	t.spans = append(t.spans, s)
	if parent > 0 {
		p := t.spans[parent-1]
		p.children = append(p.children, s.ID)
	}
	s.Start = time.Since(t.epoch).Seconds()
	s.CPUStart = cpuNow()
	return s.ID
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	cpu := cpuNow()
	now := time.Since(t.epoch).Seconds()
	gc := readGC()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	s.End = now
	s.CPUEnd = cpu
	s.GCCycles = gc.cycles - s.gc0.cycles
	s.GCCPU = gc.cpuS - s.gc0.cpuS
}

// attr records a count on span id, measured where the work happened.
func (t *tracer) attr(id int, key string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	if s.Attrs == nil {
		s.Attrs = make(map[string]float64)
	}
	s.Attrs[key] = v
}

// get returns span id; callers use it once the pass has ended.
func (t *tracer) get(id int) *span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

// selfTime is a span's duration minus the part its children cover. Child
// spans in this benchmark never overlap each other, so their durations add.
func (t *tracer) selfTime(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	self := s.dur()
	for _, c := range s.children {
		self -= t.spans[c-1].dur()
	}
	return self
}

// childrenOf returns the closed child spans of id.
func (t *tracer) childrenOf(id int) []*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*span
	for _, c := range t.spans[id-1].children {
		out = append(out, t.spans[c-1])
	}
	return out
}

// write dumps every span as JSON to path, with the run's host facts.
func (t *tracer) write(path, workload string, seed uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Workload string    `json:"workload"`
		Seed     uint64    `json:"seed"`
		Host     hostFacts `json:"host"`
		Spans    []*span   `json:"spans"`
	}{workload, seed, host, t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// setTag labels span id once its outcome is known.
func (t *tracer) setTag(id int, tag string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Tag = tag
}
