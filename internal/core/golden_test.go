package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"codelayout/internal/profile"
	"codelayout/internal/program"
	"codelayout/internal/progtest"
)

// legacyOptions is the option set the pre-pipeline optimizer took.
type legacyOptions struct {
	Chain      bool
	Split      SplitMode
	Order      OrderMode
	AlignWords int
	CFA        *CFAOptions
}

// legacyOptimize is a verbatim copy of the monolithic pre-pipeline Optimize.
// It is the golden reference: the pass-based path must reproduce its output
// bit for bit on every combination the paper measures.
func legacyOptimize(p *program.Program, pf *profile.Profile, o legacyOptions) (*program.Layout, *Report, error) {
	pf.EnsureEdges(p)
	rep := &Report{}

	// 1. Chain blocks within each procedure.
	chains := make(map[program.ProcID][]Chain, len(p.Procs))
	for _, pr := range p.Procs {
		if o.Chain && !pr.Cold {
			chains[pr.ID] = ChainProc(p, pr, pf)
		} else {
			chains[pr.ID] = SourceChains(pr)
		}
		rep.Chains += len(chains[pr.ID])
	}

	// 2. Cut into placement units.
	units := BuildUnits(p, pf, chains, o.Split)
	rep.Units = len(units)
	for _, u := range units {
		if u.Hot {
			rep.HotUnits++
			rep.HotWords += unitWords(p, u)
		}
	}

	// 3. Order units.
	var unitOrder []int
	switch o.Order {
	case OrderOriginal:
		unitOrder = make([]int, len(units))
		for i := range units {
			unitOrder[i] = i
		}
		sort.SliceStable(unitOrder, func(a, b int) bool {
			ua, ub := units[unitOrder[a]], units[unitOrder[b]]
			if ua.Proc != ub.Proc {
				return ua.Proc < ub.Proc
			}
			return ua.Seq < ub.Seq
		})
	case OrderPettisHansen:
		hot := PettisHansen(p, pf, units)
		seen := make([]bool, len(units))
		for _, i := range hot {
			seen[i] = true
		}
		unitOrder = append(unitOrder, hot...)
		var cold []int
		for i := range units {
			if !seen[i] {
				cold = append(cold, i)
			}
		}
		sort.SliceStable(cold, func(a, b int) bool {
			ua, ub := units[cold[a]], units[cold[b]]
			if ua.Proc != ub.Proc {
				return ua.Proc < ub.Proc
			}
			return ua.Seq < ub.Seq
		})
		unitOrder = append(unitOrder, cold...)
	default:
		return nil, nil, fmt.Errorf("core: unknown order mode %d", o.Order)
	}

	// 4. Flatten and materialize.
	order := make([]program.BlockID, 0, p.NumBlocks())
	alignAt := make(map[program.BlockID]bool, len(units))
	for _, ui := range unitOrder {
		u := units[ui]
		if len(u.Blocks) == 0 {
			continue
		}
		alignAt[u.Blocks[0]] = true
		order = append(order, u.Blocks...)
	}
	align := o.AlignWords
	if align == 0 {
		align = 4
	}
	mopts := program.MaterializeOptions{
		AlignWords: align,
		AlignAt:    alignAt,
		Hotness:    pf.Count,
	}
	if o.CFA != nil {
		gaps, reserved := planCFA(p, units, unitOrder, *o.CFA)
		mopts.GapBefore = gaps
		rep.CFAReservedWords = reserved
	}
	l, err := program.Materialize(p, order, mopts)
	if err != nil {
		return nil, nil, err
	}
	rep.LongBranches = l.LongBranches
	rep.PadWords = l.PadWords
	return l, rep, nil
}

// goldenVariant pairs a legacy option set with the combo name or pipeline
// spec that must reproduce it.
type goldenVariant struct {
	layout string
	opts   legacyOptions
}

// goldenVariants are the layouts whose pipeline output must be identical to
// the legacy path: the paper's six combos plus the hotcold and cfa
// extensions, each resolved through the combo table, and the cfa pass at a
// geometry small enough to reserve sets in the random programs.
func goldenVariants() []goldenVariant {
	return []goldenVariant{
		{"base", legacyOptions{}},
		{"porder", legacyOptions{Order: OrderPettisHansen}},
		{"chain", legacyOptions{Chain: true}},
		{"chain+split", legacyOptions{Chain: true, Split: SplitFine}},
		{"chain+porder", legacyOptions{Chain: true, Order: OrderPettisHansen}},
		{"all", legacyOptions{Chain: true, Split: SplitFine, Order: OrderPettisHansen}},
		{"hotcold", legacyOptions{Chain: true, Split: SplitHotCold, Order: OrderPettisHansen}},
		{"cfa", legacyOptions{Chain: true, Split: SplitFine, Order: OrderPettisHansen,
			CFA: &CFAOptions{CacheBytes: 64 << 10, ReservedBytes: 16 << 10}}},
		{"chain,split:fine,porder:ph,cfa:4096/1024,materialize", legacyOptions{
			Chain: true, Split: SplitFine, Order: OrderPettisHansen,
			CFA: &CFAOptions{CacheBytes: 4096, ReservedBytes: 1024}}},
	}
}

func TestPipelineMatchesLegacyOptimize(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		p := progtest.RandProgram(r, 1+r.Intn(9))
		pf := progtest.RandProfile(r, p, 5+r.Intn(25), 400)
		for _, c := range goldenVariants() {
			want, wantRep, err := legacyOptimize(p, pf, c.opts)
			if err != nil {
				t.Fatalf("seed %d %s: legacy: %v", seed, c.layout, err)
			}
			pl, err := Resolve(c.layout)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, c.layout, err)
			}
			got, gotRep, err := pl.Run(p, pf)
			if err != nil {
				t.Fatalf("seed %d %s: pipeline: %v", seed, c.layout, err)
			}
			if !reflect.DeepEqual(got.Order, want.Order) {
				t.Fatalf("seed %d %s: block order diverged", seed, c.layout)
			}
			if !reflect.DeepEqual(got.Addr, want.Addr) {
				t.Fatalf("seed %d %s: addresses diverged", seed, c.layout)
			}
			if !reflect.DeepEqual(got.Occ, want.Occ) {
				t.Fatalf("seed %d %s: occupancies diverged", seed, c.layout)
			}
			if got.PadWords != want.PadWords {
				t.Fatalf("seed %d %s: pad words %d != %d", seed, c.layout, got.PadWords, want.PadWords)
			}
			if got.LongBranches != want.LongBranches {
				t.Fatalf("seed %d %s: long branches %d != %d", seed, c.layout, got.LongBranches, want.LongBranches)
			}
			if !reflect.DeepEqual(gotRep, wantRep) {
				t.Fatalf("seed %d %s: report %+v != %+v", seed, c.layout, *gotRep, *wantRep)
			}
		}
	}
}
