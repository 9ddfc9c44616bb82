// Command perfbench is the repository's benchmark. It runs one named
// workload of the simulated OLTP system for a fixed host-time budget,
// checks the outputs, and prints every metric by name with its unit. The
// last line of standard output is a JSON result:
//
//	{"correct": true, "attempted": 27, "failed": 0, "metrics": {"cpu_s": {"value": 14.2, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run records a span around each call into the program's
// layers and reports the per-layer metrics instead, writing the spans to
// <out>/trace-<workload>-<seed>.json. Run it through run.sh, which builds it
// from source:
//
//	bash perfbench/run.sh --workload oltp --seed 2001 --seconds 15 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp identifies the build, host and inputs of a run; it precedes the
// result line and heads the span file.
type stamp struct {
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Scale      string `json:"scale"`
	Trace      bool   `json:"trace"`
}

// Seeds named for claims: the default, and one held out from tuning on
// which any claimed change must also hold.
const (
	defaultSeed  = 2001
	heldOutSeed  = 4099
	maxWorkers   = 1 // GOMAXPROCS and every worker pool stay at or below this
	minSetupRuns = 5 // setup_s is the median of at least this many set-ups,
	maxSetupRuns = 25
	setupBudget  = 2.0 // and of as many as fit in this many seconds
)

// bench is one invocation: a workload, its seed and budget, and what the
// run has measured so far.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	tiny     bool
	workers  int

	tr       *tracer // nil in untraced runs
	headline string  // the layout the simulated-clock metrics describe

	job, setup clock // host samples of each rep's job and of each set-up

	attempted, failed int
	failures          []string

	sim   map[string]metric // simulated-clock metrics, deterministic for a seed
	host  map[string]metric // host-side metrics and harness counters
	bases map[string]string // the base each per-layer ratio is taken over
}

// op counts one operation of the run against error_rate: err != nil marks
// it failed. It returns whether the operation succeeded.
func (b *bench) op(what string, err error) bool {
	b.attempted++
	if err == nil {
		return true
	}
	b.failed++
	b.failures = append(b.failures, fmt.Sprintf("%s: %v", what, err))
	return false
}

// repeat runs rep within the run's budget: at least once, and again while
// one more rep, as long as the longest so far, still fits.
func (b *bench) repeat(rep func() error) error {
	start := time.Now()
	var longest time.Duration
	for {
		repStart := time.Now()
		if err := rep(); err != nil {
			return err
		}
		longest = max(longest, time.Since(repStart))
		if (time.Since(start) + longest).Seconds() > b.seconds {
			return nil
		}
	}
}

// clock holds host samples in seconds: the process's CPU time (user plus
// system) and the wall time of each. CPU time is what the end-to-end
// metrics report: with one thread of work it changes little when other load
// on a shared host delays the process, while wall time grows by the delay.
type clock struct{ cpu, wall []float64 }

// timed runs f and appends its host CPU and wall durations to c. It
// collects garbage first, so every sample starts from the same heap and
// pays for no earlier sample's garbage.
func timed(c *clock, f func() error) error {
	runtime.GC()
	cpu0, wall0 := cpuTime(), time.Now()
	err := f()
	c.cpu = append(c.cpu, (cpuTime() - cpu0).Seconds())
	c.wall = append(c.wall, time.Since(wall0).Seconds())
	return err
}

// cpuTime is the CPU time the process has used, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var workloads = map[string]func(*bench) error{
	"reproduce": runReproduce,
	"search":    runSearch,
	"oltp":      runOLTP,
}

func main() {
	var (
		wl      = flag.String("workload", "", "workload to run: reproduce, search or oltp")
		seed    = flag.Int64("seed", defaultSeed, fmt.Sprintf("input seed (held-out seed for checking claims: %d)", heldOutSeed))
		seconds = flag.Float64("seconds", 15, "host seconds of repeated work to measure")
		traced  = flag.Int("trace", 0, "1 reports per-layer metrics from a separate traced run")
		out     = flag.String("out", ".bench_build", "directory for span files")
	)
	flag.Parse()
	if _, ok := workloads[*wl]; !ok {
		fatal(fmt.Errorf("-workload %q: want reproduce, search or oltp", *wl))
	}
	if *traced != 0 && *traced != 1 {
		fatal(fmt.Errorf("-trace %d: want 0 or 1", *traced))
	}
	b, st, err := run(*wl, *seed, *seconds, *traced == 1, false, *out)
	if err != nil {
		fatal(err)
	}
	report(os.Stdout, b, st)
}

// run executes one workload and returns its measurements; tiny selects the
// self-test's scale.
func run(wl string, seed int64, seconds float64, traced, tiny bool, out string) (*bench, stamp, error) {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxWorkers))
	b := &bench{
		workload: wl, seed: seed, seconds: seconds, tiny: tiny,
		workers: runtime.GOMAXPROCS(0),
		sim:     make(map[string]metric),
		host:    make(map[string]metric),
		bases:   make(map[string]string),
	}
	if traced {
		b.tr = newTracer()
	}
	st := newStamp(b)
	if err := workloads[wl](b); err != nil {
		return nil, st, fmt.Errorf("%s: %w", wl, err)
	}
	b.host["cpu_s"] = metric{median(b.job.cpu), "s"}
	b.host["setup_s"] = metric{median(b.setup.cpu), "s"}
	b.host["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	if traced {
		b.host["job.wall_s"] = metric{median(b.job.wall), "s"}
		b.host["setup.wall_s"] = metric{median(b.setup.wall), "s"}
		self := b.tr.selfTimes()
		for _, layer := range spanLayers {
			b.host[layer+".self_s"] = metric{self[layer], "s"}
		}
		if err := os.MkdirAll(out, 0o755); err != nil {
			return nil, st, err
		}
		path := filepath.Join(out, fmt.Sprintf("trace-%s-%d.json", wl, seed))
		if err := b.tr.write(path, st, b.metrics(true)); err != nil {
			return nil, st, fmt.Errorf("writing spans: %w", err)
		}
	}
	return b, st, nil
}

// spanLayers are the layers the traced run reports self time for: the
// program's layers the spans wrap calls into.
var spanLayers = []string{"appmodel", "core", "expt", "machine", "search", "stats"}

// absent reports, as zeros, per-layer metrics the workload does not
// exercise, so every workload emits the same set.
func (b *bench) absent(set map[string]metric, unit string, names ...string) {
	for _, name := range names {
		if _, ok := set[name]; !ok {
			set[name] = metric{0, unit}
		}
	}
}

// endToEnd names the metrics a user of the system sees; every other
// metric is per-layer.
var endToEnd = map[string]bool{
	"cpu_s": true, "setup_s": true, "peak_rss_mb": true,
	"instr_per_txn": true, "p50_instr": true, "tail_instr": true,
	"l1i_miss_pct": true, "gain_vs_base_pct": true,
}

// metrics returns the end-to-end metrics, or with perLayer the per-layer
// ones.
func (b *bench) metrics(perLayer bool) map[string]metric {
	out := make(map[string]metric)
	for _, set := range []map[string]metric{b.sim, b.host} {
		for name, m := range set {
			if endToEnd[name] != perLayer {
				out[name] = m
			}
		}
	}
	return out
}

// report prints the human-readable lines, then the JSON result as the
// last line.
func report(w io.Writer, b *bench, st stamp) {
	stampJSON, _ := json.Marshal(st)
	fmt.Fprintf(w, "stamp %s\n", stampJSON)
	fmt.Fprintf(w, "workload %s: %d timed runs, %d set-ups, headline layout %s\n", b.workload, len(b.job.cpu), len(b.setup.cpu), b.headline)
	fmt.Fprintf(w, "samples cpu_s %s\n", formatSamples(b.job.cpu))
	fmt.Fprintf(w, "samples job wall s %s\n", formatSamples(b.job.wall))
	fmt.Fprintf(w, "samples setup_s %s\n", formatSamples(b.setup.cpu))
	fmt.Fprintf(w, "samples setup wall s %s\n", formatSamples(b.setup.wall))
	metrics := b.metrics(b.tr != nil)
	for _, name := range sortedKeys(metrics) {
		m := metrics[name]
		line := fmt.Sprintf("metric %-36s %14.6g %s", name, m.Value, m.Unit)
		if base := b.bases[name]; base != "" && b.tr != nil {
			line += "  (of " + base + ")"
		}
		fmt.Fprintln(w, line)
	}
	for _, f := range b.failures {
		fmt.Fprintln(w, "FAILED", f)
	}
	fmt.Fprintf(w, "error_rate %g (%d failed of %d attempted)\n",
		float64(b.failed)/float64(max(b.attempted, 1)), b.failed, b.attempted)
	fmt.Fprintf(w, "sim_digest %s\n", simDigest(b))
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}
	line, _ := json.Marshal(res)
	fmt.Fprintln(w, string(line))
}

// simDigest hashes every simulated-clock metric of the run, end-to-end and
// per-layer, so a host-only change shows the simulation unchanged.
func simDigest(b *bench) string {
	h := sha256.New()
	for _, name := range sortedKeys(b.sim) {
		fmt.Fprintf(h, "%s=%s\n", name, strconv.FormatFloat(b.sim[name].Value, 'g', -1, 64))
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

func formatSamples(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(parts, " ")
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func newStamp(b *bench) stamp {
	st := stamp{
		Commit:     "unknown",
		Source:     sourceHash(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Workload:   b.workload,
		Seed:       b.seed,
		Scale:      "full",
		Trace:      b.tr != nil,
	}
	if b.tiny {
		st.Scale = "tiny"
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			st.Commit = rev + dirty
		}
	}
	return st
}

// sourceHash fingerprints the Go sources under the working directory (the
// repository root), which identifies the code even where no version
// control metadata exists.
func sourceHash() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// cpuModel reads the host CPU's model name, where the kernel publishes it.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
