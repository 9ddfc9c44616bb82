package cache_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"codelayout/internal/cache"
	"codelayout/internal/trace"
)

func run(addr uint64, words int32, kernel bool) trace.FetchRun {
	return trace.FetchRun{Addr: addr, Words: words, Kernel: kernel}
}

func TestDirectMappedConflict(t *testing.T) {
	// 1KB direct-mapped, 64B lines -> 16 sets. Two addresses 1KB apart
	// conflict in set 0.
	c := cache.New(cache.Config{SizeBytes: 1024, LineBytes: 64, Assoc: 1})
	c.Fetch(run(0, 1, false))
	c.Fetch(run(1024, 1, false))
	c.Fetch(run(0, 1, false))
	c.Fetch(run(1024, 1, false))
	if got := c.Stats().Misses; got != 4 {
		t.Fatalf("misses = %d, want 4 (ping-pong)", got)
	}
	// Non-conflicting address hits.
	c.Fetch(run(64, 1, false))
	c.Fetch(run(64, 1, false))
	if got := c.Stats().Misses; got != 5 {
		t.Fatalf("misses = %d, want 5", got)
	}
}

func TestAssociativityRemovesConflict(t *testing.T) {
	c := cache.New(cache.Config{SizeBytes: 1024, LineBytes: 64, Assoc: 2})
	for i := 0; i < 10; i++ {
		c.Fetch(run(0, 1, false))
		c.Fetch(run(1024, 1, false))
	}
	if got := c.Stats().Misses; got != 2 {
		t.Fatalf("misses = %d, want 2 (both lines fit one set)", got)
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way set: A, B fill; touching A then inserting C must evict B.
	c := cache.New(cache.Config{SizeBytes: 1024, LineBytes: 64, Assoc: 2})
	A, B, C := uint64(0), uint64(1024), uint64(2048)
	c.Fetch(run(A, 1, false))
	c.Fetch(run(B, 1, false))
	c.Fetch(run(A, 1, false)) // A most recent
	c.Fetch(run(C, 1, false)) // evicts B
	m := c.Stats().Misses
	c.Fetch(run(A, 1, false)) // must still hit
	if c.Stats().Misses != m {
		t.Fatal("A was evicted, LRU broken")
	}
	c.Fetch(run(B, 1, false)) // must miss
	if c.Stats().Misses != m+1 {
		t.Fatal("B unexpectedly present")
	}
}

func TestRunSpanningLines(t *testing.T) {
	c := cache.New(cache.Config{SizeBytes: 1024, LineBytes: 64, Assoc: 1})
	// 32 words = 128 bytes starting mid-line: touches 3 lines.
	c.Fetch(run(32, 32, false))
	s := c.Stats()
	if s.Accesses != 3 || s.Misses != 3 {
		t.Fatalf("accesses=%d misses=%d, want 3/3", s.Accesses, s.Misses)
	}
}

func TestOwnerInterferenceAttribution(t *testing.T) {
	c := cache.New(cache.Config{SizeBytes: 1024, LineBytes: 64, Assoc: 1})
	c.Fetch(run(0, 1, false))   // app fills set 0: cold miss
	c.Fetch(run(1024, 1, true)) // kernel conflicts: displaces app line
	c.Fetch(run(0, 1, false))   // app displaces kernel line
	s := c.Stats()
	if s.VictimBy[cache.OwnerApp][cache.OwnerNone] != 1 {
		t.Fatalf("cold app miss = %d", s.VictimBy[cache.OwnerApp][cache.OwnerNone])
	}
	if s.VictimBy[cache.OwnerKernel][cache.OwnerApp] != 1 {
		t.Fatalf("kernel-on-app = %d", s.VictimBy[cache.OwnerKernel][cache.OwnerApp])
	}
	if s.VictimBy[cache.OwnerApp][cache.OwnerKernel] != 1 {
		t.Fatalf("app-on-kernel = %d", s.VictimBy[cache.OwnerApp][cache.OwnerKernel])
	}
	if s.MissBy[cache.OwnerApp] != 2 || s.MissBy[cache.OwnerKernel] != 1 {
		t.Fatalf("missBy = %v", s.MissBy)
	}
}

func TestWordUsageMetrics(t *testing.T) {
	cfg := cache.Config{SizeBytes: 1024, LineBytes: 64, Assoc: 1, WordStats: true}
	c := cache.New(cfg)
	// Fill line 0, use 4 of its 16 words, then evict it with a conflict.
	c.Fetch(run(0, 4, false))
	c.Fetch(run(1024, 16, false))
	c.Finalize()
	s := c.Stats()
	if s.WordsUsed.N != 2 {
		t.Fatalf("wordsUsed N = %d", s.WordsUsed.N)
	}
	if got := s.WordsUsed.Counts[4-s.WordsUsed.Min]; got != 1 {
		t.Fatalf("lines with 4 used words = %d", got)
	}
	if got := s.WordsUsed.Counts[16-s.WordsUsed.Min]; got != 1 {
		t.Fatalf("lines with 16 used words = %d", got)
	}
	// 2 fills × 16 words = 32 fetched; 4+16 used.
	if s.FetchedWords != 32 || s.UsedWordSlots != 20 {
		t.Fatalf("fetched=%d used=%d", s.FetchedWords, s.UsedWordSlots)
	}
	if f := s.UnusedFetchedFrac(); f < 0.37 || f > 0.38 {
		t.Fatalf("unused frac = %f, want 12/32", f)
	}
}

func TestWordReuseCounts(t *testing.T) {
	cfg := cache.Config{SizeBytes: 1024, LineBytes: 64, Assoc: 1, WordStats: true}
	c := cache.New(cfg)
	// Execute the same 2 words three times, then finalize.
	for i := 0; i < 3; i++ {
		c.Fetch(run(0, 2, false))
	}
	c.Finalize()
	s := c.Stats()
	// 2 words used 3 times, 14 words used 0 times.
	if got := s.WordReuse.Counts[3]; got != 2 {
		t.Fatalf("words used 3x = %d", got)
	}
	if got := s.WordReuse.Counts[0]; got != 14 {
		t.Fatalf("words used 0x = %d", got)
	}
}

func TestLifetimeHistogram(t *testing.T) {
	cfg := cache.Config{SizeBytes: 1024, LineBytes: 64, Assoc: 1, WordStats: true}
	c := cache.New(cfg)
	c.Fetch(run(0, 1, false))
	for i := 0; i < 10; i++ {
		c.Fetch(run(64, 1, false)) // unrelated accesses age the clock
	}
	c.Fetch(run(1024, 1, false)) // evicts line 0 after ~11 accesses
	s := c.Stats()
	if s.Lifetime.N != 1 {
		t.Fatalf("lifetime N = %d", s.Lifetime.N)
	}
	// Lifetime ~11 accesses -> bucket 3 (8..15).
	if s.Lifetime.Counts[3] != 1 {
		t.Fatalf("lifetime buckets = %v", s.Lifetime.Counts)
	}
}

func TestStatsMerge(t *testing.T) {
	cfg := cache.Config{SizeBytes: 1024, LineBytes: 64, Assoc: 1}
	a, b := cache.New(cfg), cache.New(cfg)
	a.Fetch(run(0, 1, false))
	b.Fetch(run(0, 1, true))
	b.Fetch(run(1024, 1, true))
	s := cache.NewStats(cfg)
	s.Merge(a.Stats())
	s.Merge(b.Stats())
	if s.Misses != 3 || s.MissBy[cache.OwnerKernel] != 2 {
		t.Fatalf("merged: misses=%d kernel=%d", s.Misses, s.MissBy[cache.OwnerKernel])
	}
}

// Property: miss count is monotonically non-increasing in associativity for
// the same size/line on a random access pattern... not true in general for
// LRU (Belady anomalies apply to capacity, not associativity — LRU stack
// property holds only for fully associative). Instead check two solid
// invariants: misses never exceed accesses, and a repeat of the same stream
// on a fresh cache reproduces identical counts (determinism).
func TestCacheDeterminismProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := cache.Config{SizeBytes: 4096, LineBytes: 64, Assoc: 1 << r.Intn(3), WordStats: true}
		runs := make([]trace.FetchRun, 300)
		for i := range runs {
			runs[i] = trace.FetchRun{
				Addr:   uint64(r.Intn(1<<14) &^ 3),
				Words:  int32(1 + r.Intn(20)),
				Kernel: r.Intn(4) == 0,
			}
		}
		replay := func() *cache.Stats {
			c := cache.New(cfg)
			for _, fr := range runs {
				c.Fetch(fr)
			}
			c.Finalize()
			return c.Stats()
		}
		s1, s2 := replay(), replay()
		if s1.Misses > s1.Accesses {
			t.Logf("seed %d: misses > accesses", seed)
			return false
		}
		if s1.Misses != s2.Misses || s1.Accesses != s2.Accesses ||
			s1.UsedWordSlots != s2.UsedWordSlots || s1.FetchedWords != s2.FetchedWords {
			t.Logf("seed %d: nondeterministic stats", seed)
			return false
		}
		// Victim attribution sums to misses.
		var va uint64
		for i := range s1.VictimBy {
			for _, v := range s1.VictimBy[i] {
				va += v
			}
		}
		if va != s1.Misses {
			t.Logf("seed %d: victim sum %d != misses %d", seed, va, s1.Misses)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFullyUsedLineCounts(t *testing.T) {
	cfg := cache.Config{SizeBytes: 1024, LineBytes: 64, Assoc: 1, WordStats: true}
	c := cache.New(cfg)
	c.Fetch(run(0, 16, false)) // full line used
	c.Fetch(run(1024, 8, false))
	c.Finalize()
	s := c.Stats()
	full := s.WordsUsed.Counts[16-s.WordsUsed.Min]
	if full != 1 {
		t.Fatalf("fully-used lines = %d", full)
	}
}

func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		cfg cache.Config
		ok  bool
	}{
		{cache.Config{SizeBytes: 64 << 10, LineBytes: 128, Assoc: 3}, false}, // 3-way 64KB: sets do not divide
		{cache.Config{SizeBytes: 64 << 10, LineBytes: 96, Assoc: 1}, false},  // non-power-of-two line
		{cache.Config{SizeBytes: 0, LineBytes: 128, Assoc: 4}, false},        // zero size
		{cache.Config{SizeBytes: 96 << 10, LineBytes: 128, Assoc: 1}, false}, // 768 sets
		{cache.Config{SizeBytes: 64 << 10, LineBytes: 2, Assoc: 1}, false},   // line below one word
		{cache.Config{SizeBytes: 48 << 10, LineBytes: 64, Assoc: 3}, true},   // 256 sets of 3 ways
	} {
		if err := tc.cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%+v: Validate() = %v, want ok=%v", tc.cfg, err, tc.ok)
		}
	}
}
