// Command perfbench is the repository's benchmark. It drives the live EM²
// machine in this process through the public APIs of internal/wprog,
// internal/machine, internal/serve and internal/transport, checks every
// output it produces, and prints one JSON result as its last line:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced run, and the span and
// ledger accounting goes to standard error. README.md lists the workloads,
// the metrics and what each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records one failed run or job and says why on standard error.
func (r *result) fail(n int64, err error) {
	r.Failed += n
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: %v\n", err)
}

// options are the command-line settings of one benchmark run.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	out     string
	name    string
}

// spanPath is where a traced run dumps its spans.
func (o options) spanPath() string {
	return filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.csv", o.name, o.seed))
}

var workloads = map[string]func(options) (*result, error){
	"ocean-migrate": func(o options) (*result, error) { return benchOcean(o, "history:2") },
	"ocean-lease":   func(o options) (*result, error) { return benchOcean(o, "hybrid:16") },
	"serve-channel": func(o options) (*result, error) { return benchServe(o, false) },
	"serve-tcp":     func(o options) (*result, error) { return benchServe(o, true) },
}

func main() {
	name := flag.String("workload", "", "workload: ocean-migrate, ocean-lease, serve-channel or serve-tcp")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the measurement window in seconds")
	traceFlag := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	out := flag.String("out", ".", "directory for the span dump of a traced run")
	flag.Parse()

	bench, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traceFlag)
		os.Exit(2)
	}
	// One process drives the load; the machine's core goroutines share at
	// most two processors.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	res, err := bench(options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *traceFlag == 1,
		out:     *out,
		name:    *name,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0 (a layer absent from the workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// maxRSSMB is the process's peak resident set in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// goStats accumulates the Go runtime's allocation and GC work over the
// untraced ops, read around each op.
type goStats struct {
	ops                       int
	bytes, mallocs, gcs, wait uint64
	before                    runtime.MemStats
}

func (g *goStats) start() { runtime.ReadMemStats(&g.before) }

func (g *goStats) stop() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	g.ops++
	g.bytes += m.TotalAlloc - g.before.TotalAlloc
	g.mallocs += m.Mallocs - g.before.Mallocs
	g.gcs += uint64(m.NumGC - g.before.NumGC)
	g.wait += m.PauseTotalNs - g.before.PauseTotalNs
}

// report sets the go.* layer metrics per op unit (a run, or a job when
// perOp jobs share one op).
func (g *goStats) report(r *result, units float64) {
	r.set("go.mallocs_per_op", "count", ratio(float64(g.mallocs), units))
	r.set("go.gc_cycles_per_op", "count", ratio(float64(g.gcs), units))
	r.set("go.gc_pause_us_per_op", "us", ratio(float64(g.wait)/1e3, units))
}
