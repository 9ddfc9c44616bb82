// icachesim replays a recorded trace (from oltpbench -trace) through
// instruction-cache configurations and prints the miss table, like the
// paper's trace-driven cache studies.
//
//	icachesim -trace run.trace -sizes 32,64,128,256,512 -lines 16,32,64,128,256
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"codelayout/internal/cache"
	"codelayout/internal/stats"
	"codelayout/internal/trace"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "trace file")
		sizesStr  = flag.String("sizes", "32,64,128,256,512", "cache sizes (KB)")
		linesStr  = flag.String("lines", "128", "line sizes (bytes)")
		assoc     = flag.Int("assoc", 1, "associativity")
		appOnly   = flag.Bool("app-only", false, "filter out kernel references")
		kernOnly  = flag.Bool("kernel-only", false, "keep only kernel references")
	)
	flag.Parse()
	if *tracePath == "" {
		fatal(fmt.Errorf("need -trace"))
	}
	sizes, err := parseInts(*sizesStr)
	if err != nil {
		fatal(err)
	}
	lines, err := parseInts(*linesStr)
	if err != nil {
		fatal(err)
	}

	type key struct{ size, line int }
	sims := make(map[key]*perCPU)
	var all trace.Tee
	for _, s := range sizes {
		for _, l := range lines {
			cfg := cache.Config{SizeBytes: s << 10, LineBytes: l, Assoc: *assoc}
			if err := cfg.Validate(); err != nil {
				fatal(err)
			}
			p := newPerCPU(cfg)
			sims[key{s, l}] = p
			all = append(all, p)
		}
	}
	var sink trace.Sink = all
	if *appOnly {
		sink = trace.AppOnly(sink)
	}
	if *kernOnly {
		sink = trace.KernelOnly(sink)
	}

	f, err := os.Open(*tracePath)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		fatal(err)
	}
	if err := r.Replay(sink, nil); err != nil {
		fatal(err)
	}

	cols := []string{"line\\size"}
	for _, s := range sizes {
		cols = append(cols, fmt.Sprintf("%dKB", s))
	}
	t := stats.NewTable(fmt.Sprintf("icache misses (%d-way)", *assoc), cols...)
	for _, l := range lines {
		row := []interface{}{fmt.Sprintf("%dB", l)}
		for _, s := range sizes {
			row = append(row, sims[key{s, l}].misses())
		}
		t.AddRow(row...)
	}
	t.Render(os.Stdout)
}

// perCPU lazily instantiates one cache per CPU that actually appears in the
// trace.
type perCPU struct {
	cfg  cache.Config
	sims [trace.MaxCPUs]*cache.ICache
}

func newPerCPU(cfg cache.Config) *perCPU { return &perCPU{cfg: cfg} }

func (p *perCPU) Fetch(r trace.FetchRun) {
	if p.sims[r.CPU] == nil {
		p.sims[r.CPU] = cache.New(p.cfg)
	}
	p.sims[r.CPU].Fetch(r)
}

func (p *perCPU) misses() uint64 {
	var n uint64
	for _, c := range p.sims {
		if c != nil {
			n += c.Stats().Misses
		}
	}
	return n
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "icachesim:", err)
	os.Exit(1)
}
