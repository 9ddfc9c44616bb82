package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

type runKey struct {
	workload string
	seed     int64
	traced   bool
}

// tinyRuns keeps each run the tests have made, so tests share them.
var tinyRuns = make(map[runKey]*bench)

// runTiny runs one workload at tiny scale with a one-second budget, or
// returns the run an earlier test made; fresh forces a new run.
func runTiny(t *testing.T, wl string, seed int64, traced, fresh bool) *bench {
	t.Helper()
	key := runKey{wl, seed, traced}
	if b, ok := tinyRuns[key]; ok && !fresh {
		return b
	}
	b, _, err := run(wl, seed, 1, traced, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if b.attempted == 0 || b.failed != 0 {
		t.Fatalf("%s seed %d: error_rate %d/%d, want 0: %v", wl, seed, b.failed, b.attempted, b.failures)
	}
	tinyRuns[key] = b
	return b
}

// TestEveryMetricEmitted runs every workload of BENCHMARK.json untraced and
// traced, and checks that each run emits exactly the metrics the file names,
// each with its unit, and fails no operation.
func TestEveryMetricEmitted(t *testing.T) {
	f := loadBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, perfbench has %d", len(f.Workloads), len(workloads))
	}
	for _, w := range f.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which perfbench lacks", w.Name)
		}
		for _, traced := range []bool{false, true} {
			want := f.EndToEnd
			if traced {
				want = f.PerLayer
			}
			got := runTiny(t, w.Name, defaultSeed, traced, false).metrics(traced)
			for _, m := range want {
				g, ok := got[m.Name]
				if !ok {
					t.Errorf("%s traced=%t: metric %s not emitted", w.Name, traced, m.Name)
				} else if g.Unit != m.Unit {
					t.Errorf("%s traced=%t: metric %s has unit %q, BENCHMARK.json says %q", w.Name, traced, m.Name, g.Unit, m.Unit)
				}
			}
			if len(got) != len(want) {
				t.Errorf("%s traced=%t: emitted %d metrics, BENCHMARK.json names %d", w.Name, traced, len(got), len(want))
			}
		}
	}
}

// TestSimDigestFollowsSeed checks that the simulated-clock digest repeats
// exactly for a seed and changes with it, on every workload.
func TestSimDigestFollowsSeed(t *testing.T) {
	for name := range workloads {
		a := simDigest(runTiny(t, name, defaultSeed, false, false))
		if again := simDigest(runTiny(t, name, defaultSeed, false, true)); again != a {
			t.Errorf("%s: seed %d gave digests %s and %s", name, defaultSeed, a, again)
		}
		if other := simDigest(runTiny(t, name, heldOutSeed, false, false)); other == a {
			t.Errorf("%s: seeds %d and %d gave the same digest %s", name, defaultSeed, heldOutSeed, a)
		}
	}
}
