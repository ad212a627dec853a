package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one output check: a property of the program's results that must
// hold for the run's numbers to mean anything.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// runRecord is everything one run of one workload reports. Metrics holds the
// end-to-end metrics of an untraced run or the per-layer metrics of a traced
// one — exactly the names BENCHMARK.json lists for that mode. Layers adds the
// traced run's workload-specific layer measurements (kMC events, serve queue
// wait, frame bytes, …), and Spans the trace itself.
type runRecord struct {
	Workload     string            `json:"workload"`
	Seed         uint64            `json:"seed"`
	Trace        bool              `json:"trace"`
	Correct      bool              `json:"correct"`
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	Metrics      map[string]metric `json:"metrics"`
	OutputSHA256 string            `json:"output_sha256,omitempty"`
	// Samples states how many values each percentile is taken across, and
	// how many repetitions each of those values is estimated from.
	Samples     map[string]int    `json:"samples,omitempty"`
	Checks      []check           `json:"checks"`
	Layers      map[string]metric `json:"layers,omitempty"`
	Overhead    *overhead         `json:"tracing_overhead,omitempty"`
	SpanSummary []spanSummary     `json:"span_summary,omitempty"`
	Spans       []span            `json:"spans,omitempty"`
}

// overhead compares the same work traced and untraced.
type overhead struct {
	UntracedMsPerTask float64 `json:"untraced_ms_per_task"`
	TracedMsPerTask   float64 `json:"traced_ms_per_task"`
}

// report accumulates a runRecord; workloads fill it on one goroutine.
type report struct {
	runRecord
	order []string // metric names in emission order
}

func newReport(workload string, seed uint64, trace bool) *report {
	return &report{runRecord: runRecord{
		Workload: workload,
		Seed:     seed,
		Trace:    trace,
		Metrics:  map[string]metric{},
		Layers:   map[string]metric{},
	}}
}

// set records a metric of the run's mode (end-to-end or per-layer).
func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{v, unit}
}

// layer records a workload-specific layer measurement of a traced run.
func (r *report) layer(name string, v float64, unit string) {
	r.Layers[name] = metric{v, unit}
}

// op counts one attempted operation (a task, a job, a cached rerun).
func (r *report) op(ok bool) {
	r.Attempted++
	if !ok {
		r.Failed++
	}
}

// check records an output check; a failing check counts as a failed
// operation.
func (r *report) check(name string, ok bool, format string, args ...any) {
	r.op(ok)
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// finish settles Correct once every operation and check is in.
func (r *report) finish() {
	r.Correct = r.Failed == 0 && r.Attempted > 0
}

// lines renders the human-readable part of a run's output: one
// "<workload> <metric> <value> <unit>" line per metric, then the layer
// measurements, the output digest, and the checks.
func (r *report) lines() []string {
	var out []string
	for _, name := range r.order {
		m := r.Metrics[name]
		out = append(out, fmt.Sprintf("%s %s %s %s", r.Workload, name, formatValue(m.Value), m.Unit))
	}
	names := make([]string, 0, len(r.Layers))
	for name := range r.Layers {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		m := r.Layers[name]
		out = append(out, fmt.Sprintf("%s %s %s %s", r.Workload, name, formatValue(m.Value), m.Unit))
	}
	if r.Overhead != nil {
		out = append(out, fmt.Sprintf("%s tracing_overhead untraced=%sms/task traced=%sms/task", r.Workload,
			formatValue(r.Overhead.UntracedMsPerTask), formatValue(r.Overhead.TracedMsPerTask)))
	}
	if len(r.Samples) > 0 {
		var counts []string
		for name, n := range r.Samples {
			counts = append(counts, fmt.Sprintf("%s=%d", name, n))
		}
		slices.Sort(counts)
		out = append(out, fmt.Sprintf("%s samples %s", r.Workload, strings.Join(counts, " ")))
	}
	if r.OutputSHA256 != "" {
		out = append(out, fmt.Sprintf("%s output_sha256 %s", r.Workload, r.OutputSHA256))
	}
	for _, c := range r.Checks {
		status := "ok"
		if !c.OK {
			status = "FAIL"
		}
		out = append(out, strings.TrimSpace(fmt.Sprintf("%s check %s %s %s", r.Workload, c.Name, status, c.Detail)))
	}
	return out
}

// formatValue prints a measurement with all its digits.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// quantile returns the i-th of the n-quantiles of xs by the "exclusive"
// method of Python's statistics.quantiles — the definition the benchmark's
// acceptance uses for quartiles, applied here to every percentile too.
// One sample is its own quantile; no samples give 0.
func quantile(xs []float64, i, n int) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0
	case 1:
		return s[0]
	}
	m := ld + 1
	j := min(max(i*m/n, 1), ld-1)
	delta := i*m - j*n
	return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
}

func median(xs []float64) float64 { return quantile(xs, 1, 2) }

// best estimates the time of compute-bound work from repetitions with
// identical inputs: the fastest, the one other tenants of the host slowed
// least. On the shared two-core host the bounds were set on, it varied
// between runs about half as much as the repetitions' median.
func best(xs []float64) float64 { return slices.Min(xs) }

// p90 is the 90th percentile, held within the observed values: the
// workloads give it at least ten samples beyond it, and with fewer the
// exclusive method would extrapolate past the maximum.
func p90(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return min(quantile(xs, 9, 10), slices.Max(xs))
}

// another reports whether a run makes one more repetition: at least least
// of them, and then as many as end by the deadline if each takes as long as
// the last.
func another(done, least int, last time.Duration, deadline time.Time) bool {
	return done < least || time.Now().Add(last).Before(deadline)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM). Where
// /proc is unavailable it falls back to the memory the Go runtime obtained
// from the OS, which bounds the heap part of the same figure.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if fields := strings.Fields(rest); len(fields) == 2 && fields[1] == "kB" {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// memDelta measures allocation and GC activity over a phase.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	d := &memDelta{}
	runtime.ReadMemStats(&d.before)
	return d
}

// stop returns the KiB allocated and the GC cycles completed since startMem.
func (d *memDelta) stop() (allocKB float64, gcCycles uint32) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-d.before.TotalAlloc) / 1024, after.NumGC - d.before.NumGC
}

// splitmix derives a well-mixed 64-bit value from a seed and a stream of
// integers, so every generated input is a pure function of the run's seed.
func splitmix(seed uint64, xs ...uint64) uint64 {
	z := seed
	for _, x := range xs {
		z += 0x9e3779b97f4a7c15 + x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return z
}
