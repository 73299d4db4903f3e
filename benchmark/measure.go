package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// region brackets one measured region: wall clock, process CPU time
// (user+sys, so the parallel engine's second worker and the GC's background
// threads are charged), and the runtime's allocation and GC counters.
type region struct {
	t0  time.Time
	cpu float64
	ms  runtime.MemStats
}

// regionDelta is what a region cost.
type regionDelta struct {
	wall, cpu float64 // seconds
	mallocs   uint64
	gcCycles  uint32
	gcPauseMs float64
	heapMB    float64 // live heap at the end of the region
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// freshMemory gives the next rep the memory of a fresh process: it collects
// garbage, returns the heap to the OS and restarts the kernel's high-water
// mark of the resident set (writing 5 to clear_refs, Linux 4.0+). Where the
// mark cannot be restarted, peakRSSMB keeps reading the process-wide peak.
func freshMemory() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB is the resident-set high-water mark since the last freshMemory:
// VmHWM, or getrusage's process-wide maximum where /proc has none.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		if _, rest, ok := strings.Cut(string(status), "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscan(rest, &kb); err == nil {
				return kb / 1024
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func beginRegion() *region {
	r := &region{}
	runtime.ReadMemStats(&r.ms)
	r.cpu = cpuSeconds()
	r.t0 = time.Now()
	return r
}

func (r *region) end() regionDelta {
	wall := time.Since(r.t0).Seconds()
	cpu := cpuSeconds() - r.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return regionDelta{
		wall: wall, cpu: cpu,
		mallocs:   ms.Mallocs - r.ms.Mallocs,
		gcCycles:  ms.NumGC - r.ms.NumGC,
		gcPauseMs: float64(ms.PauseTotalNs-r.ms.PauseTotalNs) / 1e6,
		heapMB:    float64(ms.HeapAlloc) / (1 << 20),
	}
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (exclusive method), so the
// spreads this program prints are the ones the acceptance procedure computes.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// percentile is the nearest-rank percentile of vals (p in 0..100).
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}

// recorder keeps the traced run's spans in memory: one span around each call
// the driver makes into a layer, with the span that was open at the time as
// its parent. A nil recorder is the untraced run: every method is a no-op.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int
	rep   int
}

type span struct {
	name       string
	start, end time.Duration
	parent     int // index into spans, -1 at the root
	rep        int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// do runs fn inside a span named after the layer function it calls.
func (r *recorder) do(name string, fn func()) {
	if r == nil {
		fn()
		return
	}
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{name: name, start: time.Since(r.t0), parent: parent, rep: r.rep})
	r.open = append(r.open, id)
	fn()
	r.spans[id].end = time.Since(r.t0)
	r.open = r.open[:len(r.open)-1]
}

// totalMs sums the durations of every span with the given name.
func (r *recorder) totalMs(name string) float64 {
	if r == nil {
		return 0
	}
	var d time.Duration
	for _, s := range r.spans {
		if s.name == name {
			d += s.end - s.start
		}
	}
	return float64(d) / 1e6
}

// durationsMs lists the durations of every span with the given name.
func (r *recorder) durationsMs(name string) []float64 {
	if r == nil {
		return nil
	}
	var out []float64
	for _, s := range r.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start)/1e6)
		}
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (complete
// events, one thread lane per rep), with each span's self time — its
// duration minus what its children cover — in args.
func (r *recorder) writeChromeTrace(path, workload string) error {
	children := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			children[s.parent] += s.end - s.start
		}
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	events := []event{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "benchmark " + workload}}}
	for i, s := range r.spans {
		args := map[string]any{"self_us": us(s.end - s.start - children[i]), "id": i}
		if s.parent >= 0 {
			args["parent"] = r.spans[s.parent].name
			args["parent_id"] = s.parent
		}
		events = append(events, event{Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start),
			Pid: 1, Tid: s.rep, Args: args})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
