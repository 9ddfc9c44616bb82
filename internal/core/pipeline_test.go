package core_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"codelayout/internal/core"
	"codelayout/internal/profile"
	"codelayout/internal/program"
	"codelayout/internal/progtest"
)

// run resolves a combo name or pipeline spec and runs it.
func run(layout string, p *program.Program, pf *profile.Profile) (*program.Layout, *core.Report, error) {
	pl, err := core.Resolve(layout)
	if err != nil {
		return nil, nil, err
	}
	return pl.Run(p, pf)
}

func TestCombosCoverPaper(t *testing.T) {
	names := []string{"base", "porder", "chain", "chain+split", "chain+porder", "all",
		"hotcold", "cfa", "ipchain", "fusion"}
	combos := core.Combos()
	if len(combos) != len(names) {
		t.Fatalf("combos = %d", len(combos))
	}
	for i, n := range names {
		if combos[i].Name != n {
			t.Fatalf("combo %d = %q, want %q", i, combos[i].Name, n)
		}
		// Table specs are canonical: each re-renders to itself, and the
		// name resolves to the same pipeline.
		pl, err := core.Resolve(combos[i].Spec)
		if err != nil {
			t.Fatal(err)
		}
		byName, err := core.Resolve(n)
		if err != nil {
			t.Fatal(err)
		}
		if pl.String() != combos[i].Spec || byName.String() != combos[i].Spec {
			t.Fatalf("%s: spec %q re-renders as %q / %q", n, combos[i].Spec, pl, byName)
		}
		if want := n == "fusion"; pl.Fuses() != want {
			t.Fatalf("%s: Fuses() = %v, want %v", n, pl.Fuses(), want)
		}
	}
	if _, err := core.Resolve("nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestOptimizeAllCombosValid(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := progtest.RandProgram(r, 1+r.Intn(6))
		pf := progtest.RandProfile(r, p, 15, 250)
		for _, combo := range core.Combos() {
			l, rep, err := run(combo.Spec, p, pf)
			if err != nil {
				t.Logf("seed %d %s: %v", seed, combo.Name, err)
				return false
			}
			if err := l.Validate(); err != nil {
				t.Logf("seed %d %s: %v", seed, combo.Name, err)
				return false
			}
			if rep.Units <= 0 || rep.Chains <= 0 {
				t.Logf("seed %d %s: empty report", seed, combo.Name)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizeBaseMatchesSourceOrder(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	p := progtest.RandProgram(r, 5)
	pf := progtest.RandProfile(r, p, 10, 200)
	l, _, err := run("base", p, pf)
	if err != nil {
		t.Fatal(err)
	}
	want := program.SourceOrder(p)
	for i, id := range l.Order {
		if id != want[i] {
			t.Fatalf("base combo reordered blocks at %d: %d != %d", i, id, want[i])
		}
	}
}

func TestSplitModesPartitionBlocks(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := progtest.RandProgram(r, 1+r.Intn(5))
		pf := progtest.RandProfile(r, p, 10, 200)
		for _, mode := range []core.SplitMode{core.SplitNone, core.SplitFine, core.SplitHotCold} {
			l, _, err := run("chain,split:"+mode.String(), p, pf)
			if err != nil || l.Validate() != nil {
				t.Logf("seed %d mode %v: %v", seed, mode, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizeAllPacksHotCodeFirst(t *testing.T) {
	// With "all", every hot block must be placed before every cold-proc
	// block (hot units first, cold appended).
	r := rand.New(rand.NewSource(3))
	p := progtest.RandProgram(r, 8)
	pf := progtest.RandProfile(r, p, 25, 400)
	l, _, err := run("all", p, pf)
	if err != nil {
		t.Fatal(err)
	}
	var maxHot, minColdProcAddr uint64
	minColdProcAddr = ^uint64(0)
	sawHot, sawCold := false, false
	for _, b := range p.Blocks {
		if pf.Count(b.ID) > 0 {
			sawHot = true
			if l.Addr[b.ID] > maxHot {
				maxHot = l.Addr[b.ID]
			}
		}
	}
	// Blocks of procs with zero executed blocks are fully cold.
	for _, pr := range p.Procs {
		cold := true
		for _, bid := range pr.Blocks {
			if pf.Count(bid) > 0 {
				cold = false
				break
			}
		}
		if cold {
			sawCold = true
			for _, bid := range pr.Blocks {
				if l.Addr[bid] < minColdProcAddr {
					minColdProcAddr = l.Addr[bid]
				}
			}
		}
	}
	if sawHot && sawCold && maxHot > minColdProcAddr {
		t.Fatalf("hot block at %#x after cold proc block at %#x", maxHot, minColdProcAddr)
	}
}

func TestCFAPlanKeepsHotCodeOutOfReservedSets(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	p := progtest.RandProgram(r, 10)
	pf := progtest.RandProfile(r, p, 30, 400)
	const cacheBytes = 4096
	const reservedBytes = 1024
	spec := fmt.Sprintf("chain,split:fine,porder:ph,cfa:%d/%d", cacheBytes, reservedBytes)
	l, rep, err := run(spec, p, pf)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if rep.CFAReservedWords <= 0 {
		t.Fatal("no code placed in reserved area")
	}
	// Every hot block outside the reserved prefix must avoid the reserved
	// sets, unless its unit was itself too large to avoid them.
	reservedEnd := p.TextBase + uint64(reservedBytes)
	violations := 0
	for _, b := range p.Blocks {
		if pf.Count(b.ID) == 0 {
			continue
		}
		addr := l.Addr[b.ID]
		if addr < reservedEnd {
			continue // inside the conflict-free area itself
		}
		if off := addr % cacheBytes; off < reservedBytes {
			violations++
		}
	}
	// Oversized units may overlap; with small random procs none should.
	if violations > 0 {
		t.Fatalf("%d hot blocks map into reserved sets", violations)
	}
}
