package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"codelayout/internal/cache"
	"codelayout/internal/codegen"
	"codelayout/internal/expt"
	"codelayout/internal/isa"
	"codelayout/internal/machine"
	"codelayout/internal/program"
	"codelayout/internal/stats"
	"codelayout/internal/trace"
)

// Engine layers an application word is attributed to. Engine routines are
// named by model prefix; fusion clones ("name@tag") count to their origin.
var enginePrefixes = []string{"bt", "heap", "buf", "lock", "log", "txn", "shard", "predict"}

// libPools are the appmodel library families ("ut_17", "sql_3", ...).
var libPools = map[string]bool{"ut": true, "lat": true, "cmp": true, "rt": true, "io": true, "row": true, "sv": true, "sql": true}

// instrBuckets lists the instr.* metrics in report order.
var instrBuckets = append(append([]string(nil), enginePrefixes...), "workload", "lib")

// bucketOf maps a procedure name to its index in instrBuckets.
func bucketOf(proc string) int {
	name, _, _ := strings.Cut(proc, "@")
	prefix, rest, ok := strings.Cut(name, "_")
	if ok {
		for i, p := range enginePrefixes {
			if p == prefix {
				return i
			}
		}
		if libPools[prefix] && isDigits(rest) {
			return len(enginePrefixes) + 1
		}
	}
	return len(enginePrefixes) // workload
}

func isDigits(s string) bool {
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return s != ""
}

// layerSink is a passive trace.Sink that attributes every fetched
// application word to the procedure whose block holds it, through the
// layout's block addresses. Runs are split at block boundaries, so the
// words it counts are exactly the words the machine fetched.
type layerSink struct {
	start, end []uint64 // sorted block extents
	bucket     []uint8

	words    [10]uint64 // per instrBuckets entry
	unmapped uint64     // words outside every block (a conservation failure)
	runs     uint64

	record []trace.FetchRun // the fetch stream, kept up to recordCap runs
	keep   int
}

// recordCap bounds the fetch stream the traced run keeps for the cache
// replay (16 bytes a run).
const recordCap = 1 << 20

func newLayerSink(img *codegen.Image, l *program.Layout, keep int) *layerSink {
	type ext struct {
		start, end uint64
		bucket     uint8
	}
	exts := make([]ext, 0, len(l.Order))
	for _, b := range l.Order {
		if l.Occ[b] == 0 {
			continue
		}
		exts = append(exts, ext{l.Addr[b], l.End(b), uint8(bucketOf(img.Prog.ProcOf(b).Name))})
	}
	sort.Slice(exts, func(i, j int) bool { return exts[i].start < exts[j].start })
	s := &layerSink{keep: keep}
	for _, e := range exts {
		s.start = append(s.start, e.start)
		s.end = append(s.end, e.end)
		s.bucket = append(s.bucket, e.bucket)
	}
	return s
}

// Fetch implements trace.Sink for the application stream.
func (s *layerSink) Fetch(r trace.FetchRun) {
	if r.Kernel {
		return
	}
	s.runs++
	if len(s.record) < s.keep {
		s.record = append(s.record, r)
	}
	addr, left := r.Addr, uint64(r.Words)
	for left > 0 {
		i := sort.Search(len(s.start), func(i int) bool { return s.start[i] > addr }) - 1
		if i < 0 || addr >= s.end[i] {
			s.unmapped += left
			return
		}
		n := min(left, (s.end[i]-addr)/isa.WordBytes)
		s.words[s.bucket[i]] += n
		addr += n * isa.WordBytes
		left -= n
	}
}

func (s *layerSink) total() uint64 {
	var n uint64
	for _, w := range s.words {
		n += w
	}
	return n
}

// replicaConfig rebuilds, from the session's public options and accessors,
// the machine configuration a measurement of the layout runs: the same
// images, layouts and knobs, with no sinks attached.
func replicaConfig(s *expt.Session, layout, kern string, cpus int) (machine.Config, error) {
	appL, err := s.Layout(layout)
	if err != nil {
		return machine.Config{}, err
	}
	kernL, err := s.KernLayout(kern)
	if err != nil {
		return machine.Config{}, err
	}
	o := s.Opt
	return machine.Config{
		CPUs:                   cpus,
		ProcsPerCPU:            o.ProcsPerCPU,
		Seed:                   o.Seed,
		Shards:                 o.Shards,
		GroupCommitWindowInstr: o.GroupCommitWindowInstr,
		PerCommitLogFlush:      o.PerCommitLogFlush,
		AutoGroupCommit:        o.AutoGroupCommit,
		PredictFastPath:        o.PredictFastPath && o.Shards > 1,
		FetchStallPenaltyInstr: o.FetchStallPenaltyInstr,
		WarmupTxns:             o.WarmupTxns,
		Transactions:           o.Transactions,
		Workload:               o.Workload,
		AppImage:               s.AppImageFor(layout),
		AppLayout:              appL,
		KernImage:              s.KernelImage(),
		KernLayout:             kernL,
	}, nil
}

// runResult is one finished machine run.
type runResult struct {
	res   machine.Result
	cells []machine.TxnLatency
	wall  time.Duration
}

// runMachine runs cfg once and audits the engines afterwards.
func runMachine(cfg machine.Config) (runResult, error) {
	start := time.Now()
	m, err := machine.New(cfg)
	if err != nil {
		return runResult{}, err
	}
	res, err := m.Run()
	if err != nil {
		return runResult{}, err
	}
	wall := time.Since(start)
	if err := m.CheckInvariants(); err != nil {
		return runResult{}, err
	}
	return runResult{res: res, cells: m.LatencyByKind(), wall: wall}, nil
}

// headline is everything the simulated-clock metrics are computed from:
// the headline layout's run, its base-layout twin, the attributed fetch
// stream and, where the job measures with the battery, its measurement.
type headline struct {
	res      machine.Result
	cells    []machine.TxnLatency
	base     machine.Result
	meas     *expt.Measure // nil on workloads that run without the battery
	l1i      *cache.Stats  // app 64KB/128B/4-way
	layers   *layerSink
	txnsWant int
}

func perTxn(v uint64, r machine.Result) float64 {
	if r.Committed == 0 {
		return 0
	}
	return float64(v) / float64(r.Committed)
}

func instrPerTxn(r machine.Result) float64 { return perTxn(r.BusyInstrs+r.FetchStallInstr, r) }

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// kindStats merges a run's latency cells per kind (over shards).
type kindStats struct {
	hist *stats.Log2Hist
	max  uint64
}

func mergeKinds(cells []machine.TxnLatency) (map[string]*kindStats, *kindStats) {
	kinds := make(map[string]*kindStats)
	all := &kindStats{hist: &stats.Log2Hist{}}
	for _, c := range cells {
		k := kinds[c.Kind]
		if k == nil {
			k = &kindStats{hist: &stats.Log2Hist{}}
			kinds[c.Kind] = k
		}
		for _, ks := range []*kindStats{k, all} {
			ks.hist.Merge(c.Hist)
			ks.max = max(ks.max, c.Summary.Max)
		}
	}
	return kinds, all
}

// quantile reads q off the merged histogram, clamped to the exact maximum
// as machine.LatencySummary does.
func (k *kindStats) quantile(q float64) float64 {
	return float64(min(k.hist.Quantile(q), k.max))
}

// reportedKinds are the per-kind rows every run emits (zero where the
// workload has no such kind).
var reportedKinds = []string{"tpcb", "neworder", "payment", "payment_dist"}

// simMetrics computes every simulation-clock metric of the headline run:
// the end-to-end ones and the per-layer ones.
func (h *headline) simMetrics() map[string]metric {
	r := h.res
	kinds, all := mergeKinds(h.cells)
	m := map[string]metric{
		"instr_per_txn":    {instrPerTxn(r), "instr/txn"},
		"p50_instr":        {float64(r.Latency.P50), "instr"},
		"tail_instr":       {all.quantile(tailQuantile), "instr"},
		"l1i_miss_pct":     {100 * h.l1i.MissRate(), "%"},
		"gain_vs_base_pct": {100 * (1 - instrPerTxn(r)/instrPerTxn(h.base)), "%"},
		"latency.n":        {float64(all.hist.N), "count"},

		"machine.busy_per_txn":      {perTxn(r.BusyInstrs, r), "instr/txn"},
		"machine.stall_per_txn":     {perTxn(r.FetchStallInstr, r), "instr/txn"},
		"machine.kernel_per_txn":    {perTxn(r.KernelInstrs, r), "instr/txn"},
		"machine.idle_frac":         {ratio(r.IdleInstrs, r.BusyInstrs+r.FetchStallInstr+r.IdleInstrs), "fraction"},
		"trace.mean_fetch_run":      {ratio(h.layers.total(), h.layers.runs), "instr"},
		"cache.l1i_misses_per_txn":  {perTxn(h.l1i.Misses, r), "count/txn"},
		"db.lock_conflicts_per_txn": {perTxn(r.LockConflicts, r), "count/txn"},
		"db.deadlocks":              {float64(r.Deadlocks), "count"},
		"db.log_flushes_per_txn":    {perTxn(r.LogFlushes, r), "count/txn"},
		"db.grouped_commit_frac":    {perTxn(r.GroupedCommits, r), "fraction"},
		"db.log_blocked_per_txn":    {perTxn(r.LogBlockedInstr, r), "instr/txn"},
		"db.buf_misses_per_txn":     {perTxn(r.BufMisses, r), "count/txn"},
		"shard.cross_frac":          {perTxn(r.CrossShard, r), "fraction"},
		"shard.abort_frac":          {perTxn(r.Aborted, r), "fraction"},
		"predict.local_frac":        {perTxn(r.Predicted, r), "fraction"},
		"predict.hit_ratio":         {1 - ratio(r.Mispredicted, r.Predicted+r.Mispredicted), "fraction"},
		"tlb.itlb_misses_per_txn":   {0, "count/txn"},
		"mem.l2_misses_per_txn":     {0, "count/txn"},
	}
	if r.Predicted+r.Mispredicted == 0 {
		m["predict.hit_ratio"] = metric{0, "fraction"}
	}
	if mr := h.meas; mr != nil { // the battery ran the job's shorter measured run
		m["tlb.itlb_misses_per_txn"] = metric{perTxn(mr.ITLB64, mr.Res), "count/txn"}
		m["mem.l2_misses_per_txn"] = metric{perTxn(mr.Mem.L2Misses[0]+mr.Mem.L2Misses[1], mr.Res), "count/txn"}
	}
	for i, b := range instrBuckets {
		m["instr."+b] = metric{perTxn(h.layers.words[i], r), "instr/txn"}
	}
	for _, name := range reportedKinds {
		k := kinds[name]
		if k == nil {
			k = &kindStats{hist: &stats.Log2Hist{}}
		}
		m["kind."+name+".p50_instr"] = metric{k.quantile(0.50), "instr"}
		m["kind."+name+".tail_instr"] = metric{k.quantile(tailQuantile), "instr"}
		m["kind."+name+".n"] = metric{float64(k.hist.N), "count"}
	}
	return m
}

// checks runs the headline's conservation checks and returns one error per
// failed check (nil entries for passed ones).
func (h *headline) checks() []error {
	r := h.res
	kinds, _ := mergeKinds(h.cells)
	var n uint64
	for _, k := range kinds {
		n += k.hist.N
	}
	// The tail percentile is fixed per workload; it must keep at least ten
	// samples beyond it.
	beyond := float64(r.Latency.N) * (1 - tailQuantile)
	return []error{
		check(n == r.Latency.N, "per-kind latency samples sum to %d, Result.Latency.N is %d", n, r.Latency.N),
		check(h.layers.total() == r.AppInstrs && h.layers.unmapped == 0,
			"instr.* sum to %d (%d unmapped), AppInstrs is %d", h.layers.total(), h.layers.unmapped, r.AppInstrs),
		check(r.Committed == uint64(h.txnsWant), "committed %d of %d requested transactions", r.Committed, h.txnsWant),
		check(beyond >= 10, "p%g of %d samples has %.1f beyond it, want >= 10", 100*tailQuantile, r.Latency.N, beyond),
	}
}

func check(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}
