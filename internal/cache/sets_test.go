package cache_test

import (
	"fmt"
	"math/rand"
	"testing"

	"codelayout/internal/cache"
	"codelayout/internal/isa"
	"codelayout/internal/trace"
)

// itlb is an iTLB of the given number of entries: one fully associative set
// of page-sized lines.
func itlb(entries int) *cache.ICache {
	return cache.New(cache.Config{SizeBytes: entries * isa.PageBytes, LineBytes: isa.PageBytes, Assoc: entries})
}

func pageRun(page uint64) trace.FetchRun {
	return trace.FetchRun{Addr: page * isa.PageBytes, Words: 4}
}

func TestTLBHitsAndMisses(t *testing.T) {
	tb := itlb(4)
	for p := uint64(0); p < 4; p++ {
		tb.Fetch(pageRun(p))
	}
	if got := tb.Stats().Misses; got != 4 {
		t.Fatalf("cold misses = %d", got)
	}
	for p := uint64(0); p < 4; p++ {
		tb.Fetch(pageRun(p))
	}
	if got := tb.Stats().Misses; got != 4 {
		t.Fatalf("warm misses = %d", got)
	}
}

func TestTLBLRUEviction(t *testing.T) {
	tb := itlb(2)
	tb.Fetch(pageRun(1))
	tb.Fetch(pageRun(2))
	tb.Fetch(pageRun(1)) // 1 most recent
	tb.Fetch(pageRun(3)) // evicts 2
	m := tb.Stats().Misses
	tb.Fetch(pageRun(1))
	if tb.Stats().Misses != m {
		t.Fatal("page 1 evicted, LRU broken")
	}
	tb.Fetch(pageRun(2))
	if tb.Stats().Misses != m+1 {
		t.Fatal("page 2 should have been evicted")
	}
}

func TestTLBRunCrossingPages(t *testing.T) {
	tb := itlb(8)
	tb.Fetch(trace.FetchRun{Addr: isa.PageBytes - 8, Words: 4}) // page 0 into page 1
	if got := tb.Stats().Misses; got != 2 {
		t.Fatalf("misses = %d, want 2", got)
	}
}

func TestTLBMissRate(t *testing.T) {
	tb := itlb(2)
	tb.Fetch(pageRun(0))
	tb.Fetch(pageRun(0))
	if got := tb.Stats().MissRate(); got != 0.5 {
		t.Fatalf("miss rate = %f", got)
	}
}

// refLRU is a plain per-set map LRU with no most-recent-frame shortcut: the
// reference Sets must match access for access.
type refLRU struct {
	assoc int
	sets  uint64
	tick  int
	lines []map[uint64]refLine
}

type refLine struct {
	at   int
	meta uint8
}

func newRefLRU(cfg cache.Config) *refLRU {
	sets := cfg.SizeBytes / (cfg.LineBytes * cfg.Assoc)
	r := &refLRU{assoc: cfg.Assoc, sets: uint64(sets)}
	for i := 0; i < sets; i++ {
		r.lines = append(r.lines, make(map[uint64]refLine))
	}
	return r
}

func (r *refLRU) access(line uint64, fill uint8) (hit bool, meta uint8, hadVictim bool) {
	r.tick++
	set := r.lines[line%r.sets]
	if l, ok := set[line]; ok {
		set[line] = refLine{at: r.tick, meta: l.meta}
		return true, l.meta, false
	}
	if len(set) >= r.assoc {
		var lru uint64
		oldest := -1
		for ln, l := range set {
			if oldest < 0 || l.at < oldest {
				lru, oldest = ln, l.at
			}
		}
		meta, hadVictim = set[lru].meta, true
		delete(set, lru)
	}
	set[line] = refLine{at: r.tick, meta: fill}
	return false, meta, hadVictim
}

func (r *refLRU) invalidate(line uint64) bool {
	set := r.lines[line%r.sets]
	_, ok := set[line]
	delete(set, line)
	return ok
}

// TestSetsMatchReferenceLRU drives Sets through random multi-set streams,
// with repeats of the previous line (the most-recent-frame shortcut) and
// invalidations mixed in, and requires the hit/miss, metadata and
// invalidation results to match the reference LRU at every step.
func TestSetsMatchReferenceLRU(t *testing.T) {
	for _, cfg := range []cache.Config{
		{SizeBytes: 1 << 10, LineBytes: 64, Assoc: 1},
		{SizeBytes: 2 << 10, LineBytes: 64, Assoc: 2},
		{SizeBytes: 4 << 10, LineBytes: 64, Assoc: 4},
		{SizeBytes: 64 * isa.PageBytes, LineBytes: isa.PageBytes, Assoc: 64},
		{SizeBytes: 2 * 64 * 64, LineBytes: 64, Assoc: 64},
	} {
		t.Run(fmt.Sprintf("%dB-%dway", cfg.SizeBytes, cfg.Assoc), func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				r := rand.New(rand.NewSource(seed))
				s, ref := cache.NewSets(cfg), newRefLRU(cfg)
				frames := uint64(cfg.SizeBytes / cfg.LineBytes)
				var line uint64
				for i := 0; i < 20000; i++ {
					switch op := r.Intn(20); {
					case op == 0:
						ln := uint64(r.Int63n(int64(2 * frames)))
						if got, want := s.Invalidate(ln), ref.invalidate(ln); got != want {
							t.Fatalf("seed %d step %d: Invalidate(%d) = %v, reference %v", seed, i, ln, got, want)
						}
						continue
					case op < 8:
						// Repeat the previous line.
					default:
						line = uint64(r.Int63n(int64(2 * frames)))
					}
					fill := uint8(r.Intn(3))
					_, hit, meta, had := s.Access(line, fill)
					rHit, rMeta, rHad := ref.access(line, fill)
					if hit != rHit || had != rHad || (hit || had) && meta != rMeta {
						t.Fatalf("seed %d step %d line %d: hit=%v victim=%v meta=%d, reference hit=%v victim=%v meta=%d",
							seed, i, line, hit, had, meta, rHit, rHad, rMeta)
					}
				}
			}
		})
	}
}
