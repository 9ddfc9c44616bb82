// Package cache implements the set-associative LRU core (Sets) under every
// cache model in the repository, and on it the instruction-cache simulator
// used for every I-cache and iTLB miss study in the paper (an iTLB is one
// fully associative set of page-sized lines). The simulator adds the
// specialized metrics of Section 4.2: unique-word usage before replacement
// (Fig 9), per-word reuse counts (Fig 10), cache line lifetimes in cache
// accesses (Fig 11), unique-line footprint, and the application/kernel
// interference attribution of Fig 13.
package cache

import (
	"fmt"

	"codelayout/internal/isa"
	"codelayout/internal/stats"
	"codelayout/internal/trace"
)

// Owner classifies who filled a cache line or issued a miss.
type Owner uint8

const (
	// OwnerApp marks application text.
	OwnerApp Owner = iota
	// OwnerKernel marks kernel text.
	OwnerKernel
	// OwnerNone marks a cold miss (no valid victim).
	OwnerNone
)

func (o Owner) String() string {
	switch o {
	case OwnerApp:
		return "application"
	case OwnerKernel:
		return "kernel"
	default:
		return "none"
	}
}

// Config describes an instruction cache.
type Config struct {
	SizeBytes int
	LineBytes int
	Assoc     int // 1 = direct-mapped
	// WordStats enables per-word usage tracking (Figs 9-11 and the
	// unused-fetched-instructions statistic). It costs time and memory, so
	// the big parameter sweeps leave it off.
	WordStats bool
}

// Validate reports whether the geometry can be simulated: positive size,
// line and associativity, a power-of-two line of at least one instruction
// word, and a size that divides
// into a power-of-two number of sets of assoc lines each.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache: size %d, line %d and associativity %d must all be positive",
			c.SizeBytes, c.LineBytes, c.Assoc)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 || c.LineBytes < isa.WordBytes {
		return fmt.Errorf("cache: line size %d is not a power of two of at least one %d-byte word", c.LineBytes, isa.WordBytes)
	}
	if c.SizeBytes%(c.LineBytes*c.Assoc) != 0 {
		return fmt.Errorf("cache: size %d not divisible by line*assoc (%d*%d)", c.SizeBytes, c.LineBytes, c.Assoc)
	}
	if sets := c.SizeBytes / (c.LineBytes * c.Assoc); sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// String renders the config like the paper's captions, e.g.
// "128KB/128B/4-way".
func (c Config) String() string {
	way := fmt.Sprintf("%d-way", c.Assoc)
	if c.Assoc == 1 {
		way = "direct"
	}
	return fmt.Sprintf("%dKB/%dB/%s", c.SizeBytes/1024, c.LineBytes, way)
}

// Stats accumulates simulation results. Merge combines per-CPU instances.
type Stats struct {
	Config   Config
	Accesses uint64 // line-granularity accesses
	Misses   uint64
	Fills    uint64
	// MissBy[m] counts misses issued by missing process m (OwnerApp or
	// OwnerKernel).
	MissBy [2]uint64
	// VictimBy[m][v] counts misses by missing process m that displaced a
	// line owned by v (OwnerApp, OwnerKernel, or OwnerNone for cold fills).
	VictimBy [2][3]uint64

	// Word-level metrics (valid when Config.WordStats).
	WordsUsed     *stats.Hist     // unique words used in a line before replacement
	WordReuse     *stats.Hist     // times an individual word is used before replacement
	Lifetime      *stats.Log2Hist // line lifetime in cache accesses
	FetchedWords  uint64          // words brought in by fills
	UsedWordSlots uint64          // word slots used at least once before replacement
}

// NewStats allocates a stats block for the given config.
func NewStats(cfg Config) *Stats {
	s := &Stats{Config: cfg}
	if cfg.WordStats {
		s.WordsUsed = stats.NewHist(0, cfg.LineBytes/isa.WordBytes)
		s.WordReuse = stats.NewHist(0, 15)
		s.Lifetime = &stats.Log2Hist{}
	}
	return s
}

// Merge folds other (same config) into s.
func (s *Stats) Merge(other *Stats) {
	s.Accesses += other.Accesses
	s.Misses += other.Misses
	s.Fills += other.Fills
	for i := range s.MissBy {
		s.MissBy[i] += other.MissBy[i]
		for j := range s.VictimBy[i] {
			s.VictimBy[i][j] += other.VictimBy[i][j]
		}
	}
	if s.Config.WordStats && other.Config.WordStats {
		s.WordsUsed.Merge(other.WordsUsed)
		s.WordReuse.Merge(other.WordReuse)
		s.Lifetime.Merge(other.Lifetime)
		s.FetchedWords += other.FetchedWords
		s.UsedWordSlots += other.UsedWordSlots
	}
}

// MissRate returns misses per access.
func (s *Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// UnusedFetchedFrac returns the fraction of fetched instruction words that
// were never executed before their line was replaced (the paper reports 46%
// baseline vs 21% optimized).
func (s *Stats) UnusedFetchedFrac() float64 {
	if s.FetchedWords == 0 {
		return 0
	}
	return 1 - float64(s.UsedWordSlots)/float64(s.FetchedWords)
}

// ICache simulates one instruction cache with LRU replacement: the Sets
// core, with the filling owner in each frame's metadata byte, plus miss
// attribution and the word-level metrics.
type ICache struct {
	cfg       Config
	sets      Sets
	lineWords int

	// Per-frame word state (WordStats only).
	fillAt  []uint64
	wordCnt []uint8 // frames × lineWords saturating counters
	missCB  func(lineAddr uint64, kernel bool)

	stats *Stats
}

// New creates an instruction cache simulator. It panics on a geometry
// Validate rejects; check user-supplied configs with Validate first.
func New(cfg Config) *ICache {
	c := &ICache{
		cfg:       cfg,
		sets:      *NewSets(cfg),
		lineWords: cfg.LineBytes / isa.WordBytes,
		stats:     NewStats(cfg),
	}
	if cfg.WordStats {
		frames := len(c.sets.tags)
		c.fillAt = make([]uint64, frames)
		c.wordCnt = make([]uint8, frames*c.lineWords)
	}
	return c
}

// Config returns the cache configuration.
func (c *ICache) Config() Config { return c.cfg }

// OnMiss registers a callback invoked on every miss with the line-aligned
// address, used to feed a unified L2.
func (c *ICache) OnMiss(cb func(lineAddr uint64, kernel bool)) { c.missCB = cb }

// Fetch implements trace.Sink: it touches every line the run covers and, if
// word stats are enabled, marks each fetched word used.
func (c *ICache) Fetch(r trace.FetchRun) {
	first := c.sets.LineOf(r.Addr)
	last := c.sets.LineOf(r.End() - 1)
	for ln := first; ln <= last; ln++ {
		frame := c.access(ln, r.Kernel)
		if c.wordCnt != nil {
			lineStart := c.sets.LineAddr(ln)
			w0 := 0
			if r.Addr > lineStart {
				w0 = int(r.Addr-lineStart) / isa.WordBytes
			}
			w1 := c.lineWords - 1
			if end := c.sets.LineAddr(ln + 1); r.End() < end {
				w1 = int(r.End()-lineStart)/isa.WordBytes - 1
			}
			base := frame * c.lineWords
			for w := w0; w <= w1; w++ {
				if c.wordCnt[base+w] != 255 {
					c.wordCnt[base+w]++
				}
			}
		}
	}
}

// FetchMisses is Fetch plus the number of misses this run took, for inline
// stall models that charge miss latency to a CPU clock as it fetches.
func (c *ICache) FetchMisses(r trace.FetchRun) int {
	before := c.stats.Misses
	c.Fetch(r)
	return int(c.stats.Misses - before)
}

// access looks up one line and returns the frame index holding it.
func (c *ICache) access(line uint64, kernel bool) int {
	c.stats.Accesses++
	miss := OwnerApp
	if kernel {
		miss = OwnerKernel
	}
	f, hit, victim, hadVictim := c.sets.Access(line, uint8(miss))
	if hit {
		return f
	}
	c.stats.Misses++
	c.stats.MissBy[miss]++
	if hadVictim {
		c.stats.VictimBy[miss][victim]++
		c.retire(f)
	} else {
		c.stats.VictimBy[miss][OwnerNone]++
	}
	c.stats.Fills++
	if c.wordCnt != nil {
		c.fillAt[f] = c.sets.clock
		clear(c.wordCnt[f*c.lineWords : (f+1)*c.lineWords])
		c.stats.FetchedWords += uint64(c.lineWords)
	}
	if c.missCB != nil {
		c.missCB(c.sets.LineAddr(line), kernel)
	}
	return f
}

// retire records replacement-time metrics for a frame whose line is leaving.
func (c *ICache) retire(f int) {
	if c.wordCnt == nil {
		return
	}
	base := f * c.lineWords
	used := 0
	for w := 0; w < c.lineWords; w++ {
		n := c.wordCnt[base+w]
		c.stats.WordReuse.Add(int(n))
		if n > 0 {
			used++
		}
	}
	c.stats.WordsUsed.Add(used)
	c.stats.UsedWordSlots += uint64(used)
	c.stats.Lifetime.Add(c.sets.clock - c.fillAt[f])
}

// Finalize folds still-resident lines into the replacement-time metrics so
// short runs are not biased toward early evictions. Safe to call once at the
// end of a simulation.
func (c *ICache) Finalize() {
	if c.wordCnt == nil {
		return
	}
	for f, tag := range c.sets.tags {
		if tag != 0 {
			c.retire(f)
			c.sets.tags[f] = 0
		}
	}
}

// Stats returns the accumulated statistics.
func (c *ICache) Stats() *Stats { return c.stats }
