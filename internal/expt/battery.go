package expt

import (
	"codelayout/internal/cache"
	"codelayout/internal/isa"
	"codelayout/internal/machine"
	"codelayout/internal/mem"
	"codelayout/internal/trace"
)

// The parameter grids of the paper's evaluation.
var (
	// CacheSizesKB is Figure 4/6/7/12's cache-size axis.
	CacheSizesKB = []int{32, 64, 128, 256, 512}
	// LineSizes is Figure 4/5's line-size axis.
	LineSizes = []int{16, 32, 64, 128, 256}
)

// Measure holds everything one simulated run produces. Res, Latency and
// GCWindows are always filled; the sink fields are filled for the groups in
// Has and nil (or zero) for the rest.
type Measure struct {
	Res machine.Result

	// Has is the set of sink groups this run built (see Need).
	Has Need

	// Latency is the run's per-transaction latency breakdown per home
	// shard × transaction kind (the run-wide summary is Res.Latency).
	Latency []machine.TxnLatency
	// GCWindows reports the per-shard group-commit windows in force at the
	// end of the run (the tuned values under an AutoGroupCommit mode).
	GCWindows []uint64

	// AppDM[size][line] — application-only, direct-mapped (Figures 4, 5).
	AppDM map[int]map[int]*cache.Stats
	// App4W[size] — application-only, 128B lines, 4-way (Figures 6, 7, 12).
	App4W map[int]*cache.Stats
	// Comb4W[size] — combined app+kernel, 128B, 4-way (Figure 12).
	Comb4W map[int]*cache.Stats
	// Kern4W[size] — kernel-only, 128B, 4-way (Figure 12).
	Kern4W map[int]*cache.Stats

	// Word: application-only 128KB/128B/4-way with word tracking
	// (Figures 9, 10, 11 and the unused-fetch statistic).
	Word *cache.Stats
	// Intf: combined 128KB/128B/4-way for interference attribution
	// (Figure 13).
	Intf *cache.Stats

	// Seq and Foot observe the application stream (Figure 8, footprint).
	Seq  *trace.SeqLen
	Foot *trace.Footprint

	AppRuns trace.Counter
	AllRuns trace.Counter

	// ITLB64/ITLB48: merged iTLB misses (64-entry SimOS config, 48-entry
	// 21164 config).
	ITLB64 uint64
	ITLB48 uint64

	// HW21264/HW21164: the hardware platforms' L1 I-caches (combined
	// stream): 64KB 2-way 64B and 8KB direct-mapped 32B. These are the same
	// simulators that feed the SimOS L2 and the 21164 board cache.
	HW21264 *cache.Stats
	HW21164 *cache.Stats

	// Mem: the SimOS memory system (64KB/64B/2-way L1I+L1D feeding a 1.5MB
	// 6-way unified L2) — Figure 14.
	Mem mem.Stats
	// Board: the 21164-like system (8KB L1s feeding a 2MB direct-mapped
	// board cache).
	Board mem.Stats
}

// Need is a set of Measure sink groups: the fields of a Measure a caller
// reads. A measurement builds only the simulators its need names, and each
// group builds every simulator its fields depend on, so a group's numbers
// are bit-identical to the full battery's. Res, Latency and GCWindows come
// from the machine itself and are always filled; the empty need measures
// them alone.
type Need uint16

// The sink groups, one per Measure field group.
const (
	NeedAppDM   Need = 1 << iota // AppDM
	NeedApp4W                    // App4W
	NeedComb4W                   // Comb4W
	NeedKern4W                   // Kern4W
	NeedWord                     // Word
	NeedIntf                     // Intf
	NeedSeqFoot                  // Seq and Foot
	NeedRuns                     // AppRuns and AllRuns
	NeedITLB                     // ITLB64 and ITLB48
	NeedMem                      // HW21264 and Mem (the SimOS L1I feeds its L2)
	NeedBoard                    // HW21164 and Board (the 21164 L1I feeds its board cache)

	// NeedNone attaches no sinks: Res, Latency and GCWindows alone.
	NeedNone Need = 0
	// NeedAll is the paper's full battery: every group above.
	NeedAll = NeedBoard<<1 - 1
)

// covers reports whether n includes every group of o.
func (n Need) covers(o Need) bool { return n&o == o }

// battery wires up the sinks of one run's need; the groups outside it stay
// nil.
type battery struct {
	need Need

	appDM  map[int]map[int]*perCPUCache
	app4W  map[int]*perCPUCache
	comb4W map[int]*perCPUCache
	kern4W map[int]*perCPUCache
	word   *perCPUCache
	intf   *perCPUCache

	seq    *trace.SeqLen
	foot   *trace.Footprint
	appCnt *trace.Counter
	allCnt *trace.Counter
	itlb64 *perCPUCache // iTLBs: fully associative caches of pages
	itlb48 *perCPUCache
	memsys *mem.System
	board  *mem.System

	simosL1I *perCPUCache // 64KB/64B/2-way, feeds memsys (doubles as 21264 L1I)
	boardL1I *perCPUCache // 8KB/32B/direct, feeds board (doubles as 21164 L1I)
}

func newBattery(cpus int, need Need) *battery {
	b := &battery{need: need}
	// bySize builds one 128B/4-way cache per CacheSizesKB entry.
	bySize := func(g Need) map[int]*perCPUCache {
		if !need.covers(g) {
			return nil
		}
		m := make(map[int]*perCPUCache, len(CacheSizesKB))
		for _, size := range CacheSizesKB {
			m[size] = newPerCPUCache(cache.Config{SizeBytes: size << 10, LineBytes: 128, Assoc: 4}, cpus)
		}
		return m
	}
	b.app4W = bySize(NeedApp4W)
	b.comb4W = bySize(NeedComb4W)
	b.kern4W = bySize(NeedKern4W)
	if need.covers(NeedAppDM) {
		b.appDM = make(map[int]map[int]*perCPUCache, len(CacheSizesKB))
		for _, size := range CacheSizesKB {
			b.appDM[size] = make(map[int]*perCPUCache, len(LineSizes))
			for _, line := range LineSizes {
				b.appDM[size][line] = newPerCPUCache(cache.Config{SizeBytes: size << 10, LineBytes: line, Assoc: 1}, cpus)
			}
		}
	}
	if need.covers(NeedWord) {
		b.word = newPerCPUCache(cache.Config{SizeBytes: 128 << 10, LineBytes: 128, Assoc: 4, WordStats: true}, cpus)
	}
	if need.covers(NeedIntf) {
		b.intf = newPerCPUCache(cache.Config{SizeBytes: 128 << 10, LineBytes: 128, Assoc: 4}, cpus)
	}
	if need.covers(NeedSeqFoot) {
		b.seq = trace.NewSeqLen()
		b.foot = trace.NewFootprint(128)
	}
	if need.covers(NeedRuns) {
		b.appCnt = &trace.Counter{}
		b.allCnt = &trace.Counter{}
	}
	if need.covers(NeedITLB) {
		b.itlb64 = newPerCPUCache(itlbConfig(64), cpus)
		b.itlb48 = newPerCPUCache(itlbConfig(48), cpus)
	}
	if need.covers(NeedMem) {
		b.memsys = mem.NewSystem(mem.DefaultConfig(cpus))
		b.simosL1I = newPerCPUCache(cache.Config{SizeBytes: 64 << 10, LineBytes: 64, Assoc: 2}, cpus)
		for c, ic := range b.simosL1I.sims {
			cc := c
			ic.OnMiss(func(lineAddr uint64, kernel bool) { b.memsys.FetchMiss(lineAddr, cc) })
		}
	}
	if need.covers(NeedBoard) {
		b.board = mem.NewSystem(mem.Config{
			CPUs:         cpus,
			L1DSizeBytes: 8 << 10, L1DLineBytes: 32, L1DAssoc: 1,
			L2SizeBytes: 2 << 20, L2LineBytes: 64, L2Assoc: 1,
		})
		b.boardL1I = newPerCPUCache(cache.Config{SizeBytes: 8 << 10, LineBytes: 32, Assoc: 1}, cpus)
		for c, ic := range b.boardL1I.sims {
			cc := c
			ic.OnMiss(func(lineAddr uint64, kernel bool) { b.board.FetchMiss(lineAddr, cc) })
		}
	}
	return b
}

// sinks returns the built fetch sinks, grouped by the stream they observe;
// streams no built sink observes are left out.
func (b *battery) sinks() []trace.Sink {
	var app, kern, combined trace.Tee
	for _, perLine := range b.appDM {
		for _, c := range perLine {
			app = append(app, c)
		}
	}
	for _, c := range b.app4W {
		app = append(app, c)
	}
	for _, c := range b.kern4W {
		kern = append(kern, c)
	}
	for _, c := range b.comb4W {
		combined = append(combined, c)
	}
	if b.word != nil {
		app = append(app, b.word)
	}
	if b.seq != nil {
		app = append(app, b.seq, b.foot)
	}
	if b.appCnt != nil {
		app = append(app, b.appCnt)
		combined = append(combined, b.allCnt)
	}
	if b.intf != nil {
		combined = append(combined, b.intf)
	}
	if b.itlb64 != nil {
		combined = append(combined, b.itlb64, b.itlb48)
	}
	if b.simosL1I != nil {
		combined = append(combined, b.simosL1I)
	}
	if b.boardL1I != nil {
		combined = append(combined, b.boardL1I)
	}

	var out []trace.Sink
	if len(app) > 0 {
		out = append(out, trace.AppOnly(app))
	}
	if len(kern) > 0 {
		out = append(out, trace.KernelOnly(kern))
	}
	if len(combined) > 0 {
		out = append(out, combined)
	}
	return out
}

func (b *battery) dataSinks() []trace.DataSink {
	var out []trace.DataSink
	if b.memsys != nil {
		out = append(out, b.memsys)
	}
	if b.board != nil {
		out = append(out, b.board)
	}
	return out
}

// finish fills the Measure fields of the battery's need and records the
// need in Measure.Has; the other fields stay nil or zero.
func (b *battery) finish(res machine.Result) *Measure {
	m := &Measure{Res: res, Has: b.need}
	if b.appDM != nil {
		m.AppDM = make(map[int]map[int]*cache.Stats, len(b.appDM))
		for size, perLine := range b.appDM {
			m.AppDM[size] = make(map[int]*cache.Stats, len(perLine))
			for line, c := range perLine {
				m.AppDM[size][line] = c.stats()
			}
		}
	}
	m.App4W = statsBySize(b.app4W)
	m.Comb4W = statsBySize(b.comb4W)
	m.Kern4W = statsBySize(b.kern4W)
	if b.word != nil {
		m.Word = b.word.stats()
	}
	if b.intf != nil {
		m.Intf = b.intf.stats()
	}
	if b.seq != nil {
		b.seq.Flush()
		m.Seq = b.seq
		m.Foot = b.foot
	}
	if b.appCnt != nil {
		m.AppRuns = *b.appCnt
		m.AllRuns = *b.allCnt
	}
	if b.itlb64 != nil {
		m.ITLB64 = b.itlb64.stats().Misses
		m.ITLB48 = b.itlb48.stats().Misses
	}
	if b.memsys != nil {
		m.HW21264 = b.simosL1I.stats()
		m.Mem = b.memsys.Stats
	}
	if b.board != nil {
		m.HW21164 = b.boardL1I.stats()
		m.Board = b.board.Stats
	}
	return m
}

// statsBySize merges each size's per-CPU stats; nil for a group not built.
func statsBySize(caches map[int]*perCPUCache) map[int]*cache.Stats {
	if caches == nil {
		return nil
	}
	m := make(map[int]*cache.Stats, len(caches))
	for size, c := range caches {
		m[size] = c.stats()
	}
	return m
}

// itlbConfig is an iTLB of the given number of entries as a cache: one fully
// associative set of page-sized lines.
func itlbConfig(entries int) cache.Config {
	return cache.Config{SizeBytes: entries * isa.PageBytes, LineBytes: isa.PageBytes, Assoc: entries}
}

// perCPUCache routes runs to one ICache per CPU and merges their stats.
type perCPUCache struct {
	sims []*cache.ICache
	cfg  cache.Config
}

func newPerCPUCache(cfg cache.Config, cpus int) *perCPUCache {
	p := &perCPUCache{cfg: cfg}
	for i := 0; i < cpus; i++ {
		p.sims = append(p.sims, cache.New(cfg))
	}
	return p
}

// Fetch implements trace.Sink.
func (p *perCPUCache) Fetch(r trace.FetchRun) {
	i := int(r.CPU)
	if i >= len(p.sims) {
		i = len(p.sims) - 1
	}
	p.sims[i].Fetch(r)
}

func (p *perCPUCache) stats() *cache.Stats {
	merged := cache.NewStats(p.cfg)
	for _, c := range p.sims {
		c.Finalize()
		merged.Merge(c.Stats())
	}
	return merged
}
