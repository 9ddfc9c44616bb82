package codegen_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"codelayout/internal/codegen"
	"codelayout/internal/core"
	"codelayout/internal/isa"
	"codelayout/internal/profile"
	"codelayout/internal/program"
	"codelayout/internal/trace"
)

// buildTestImage: an engine fn with a branch, a loop, a call to another
// engine fn, and calls into an auto helper.
func buildTestImage(t *testing.T) *codegen.Image {
	t.Helper()
	img, err := codegen.Build(codegen.ImageSpec{
		Name:     "t",
		TextBase: isa.AppTextBase,
		Fns: []codegen.FnSpec{
			{Name: "helper", Auto: true, Body: []codegen.Frag{
				codegen.Seq(4),
				codegen.AutoIf{Prob: 0.5, Then: []codegen.Frag{codegen.Seq(3)}},
				codegen.Seq(2),
			}},
			{Name: "inner", Body: []codegen.Frag{
				codegen.Seq(3),
				codegen.If{Site: "inner_cond", Then: []codegen.Frag{codegen.Seq(5)}, Else: []codegen.Frag{codegen.Seq(2)}},
				codegen.Call{Fn: "helper"},
				codegen.Seq(1),
			}},
			{Name: "outer", Body: []codegen.Frag{
				codegen.Seq(2),
				codegen.Loop{Site: "outer_loop", Head: 2, Body: []codegen.Frag{
					codegen.Call{Fn: "inner"},
					codegen.Seq(1),
				}},
				codegen.Switch{Site: "outer_sw", Cases: [][]codegen.Frag{
					{codegen.Seq(2)}, {codegen.Seq(4)}, {codegen.Seq(6)},
				}},
				codegen.Seq(3),
			}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// driveScript runs a fixed event script against the emitter.
func driveScript(e *codegen.Emitter, iters int, takeThen bool, swCase int) {
	e.Enter("outer")
	for i := 0; i < iters; i++ {
		e.Branch("outer_loop", true)
		e.Enter("inner")
		e.Branch("inner_cond", takeThen)
		e.Leave("inner")
	}
	e.Branch("outer_loop", false)
	e.Case("outer_sw", swCase)
	e.Leave("outer")
}

func TestEmitterRunsScript(t *testing.T) {
	img := buildTestImage(t)
	l, err := program.BaselineLayout(img.Prog)
	if err != nil {
		t.Fatal(err)
	}
	e := codegen.NewEmitter(img, l, 1)
	var runs []trace.FetchRun
	e.Sink = func(addr uint64, words int32) {
		runs = append(runs, trace.FetchRun{Addr: addr, Words: words})
	}
	driveScript(e, 3, true, 1)
	if !e.Idle() {
		t.Fatal("emitter not idle after script")
	}
	if len(runs) == 0 || e.Instructions == 0 {
		t.Fatal("no instructions emitted")
	}
	// Every run must lie inside the text segment.
	end := l.Addr[l.Order[len(l.Order)-1]] + uint64(l.Occ[l.Order[len(l.Order)-1]])*isa.WordBytes
	for _, r := range runs {
		if r.Addr < img.Prog.TextBase || r.End() > end {
			t.Fatalf("run %#x+%d outside text", r.Addr, r.Words)
		}
	}
}

// TestEmitterLayoutInvariance is the central correctness property of the
// whole reproduction: the same engine events over different layouts must
// execute the same logical block sequence (identical Pixie profiles), while
// addresses differ.
func TestEmitterLayoutInvariance(t *testing.T) {
	img := buildTestImage(t)
	base, err := program.BaselineLayout(img.Prog)
	if err != nil {
		t.Fatal(err)
	}
	// Gather a profile under the baseline to feed the optimizer.
	px1 := profile.NewPixie(img.Prog, "p1")
	e1 := codegen.NewEmitter(img, base, 9)
	e1.Collector = px1
	driveScript(e1, 4, false, 2)

	all, err := core.Resolve("all")
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := all.Run(img.Prog, px1.Profile)
	if err != nil {
		t.Fatal(err)
	}

	// Same script + same PRNG seed on both layouts.
	for _, seed := range []int64{9, 77} {
		pa := profile.NewPixie(img.Prog, "a")
		ea := codegen.NewEmitter(img, base, seed)
		ea.Collector = pa
		driveScript(ea, 4, false, 2)

		pb := profile.NewPixie(img.Prog, "b")
		eb := codegen.NewEmitter(img, opt, seed)
		eb.Collector = pb
		driveScript(eb, 4, false, 2)

		for b := range pa.Profile.BlockCount {
			if pa.Profile.BlockCount[b] != pb.Profile.BlockCount[b] {
				t.Fatalf("seed %d: block %d count %d != %d under optimized layout",
					seed, b, pa.Profile.BlockCount[b], pb.Profile.BlockCount[b])
			}
		}
		if len(pa.Profile.EdgeCount) != len(pb.Profile.EdgeCount) {
			t.Fatalf("seed %d: edge sets differ", seed)
		}
		for k, n := range pa.Profile.EdgeCount {
			if pb.Profile.EdgeCount[k] != n {
				t.Fatalf("seed %d: edge %d count differs", seed, k)
			}
		}
	}
}

func TestEmitterPanicsOnModelDrift(t *testing.T) {
	img := buildTestImage(t)
	l, _ := program.BaselineLayout(img.Prog)
	cases := []struct {
		name  string
		drive func(e *codegen.Emitter)
	}{
		{"wrong site", func(e *codegen.Emitter) {
			e.Enter("outer")
			e.Branch("inner_cond", true) // model is at outer_loop
		}},
		{"wrong callee", func(e *codegen.Emitter) {
			e.Enter("outer")
			e.Branch("outer_loop", true)
			e.Enter("outer") // model expects inner
		}},
		{"early leave", func(e *codegen.Emitter) {
			e.Enter("outer")
			e.Leave("outer") // pending loop decision
		}},
		{"leave wrong frame", func(e *codegen.Emitter) {
			e.Enter("outer")
			e.Branch("outer_loop", true)
			e.Enter("inner")
			e.Leave("outer")
		}},
		{"case out of range", func(e *codegen.Emitter) {
			e.Enter("outer")
			e.Branch("outer_loop", false)
			e.Case("outer_sw", 9)
		}},
		{"unknown fn", func(e *codegen.Emitter) { e.Enter("nope") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := codegen.NewEmitter(img, l, 1)
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.drive(e)
		})
	}
}

func TestBuildRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name string
		spec codegen.ImageSpec
	}{
		{"dup fn", codegen.ImageSpec{Fns: []codegen.FnSpec{
			{Name: "a", Auto: true, Body: []codegen.Frag{codegen.Seq(1)}},
			{Name: "a", Auto: true, Body: []codegen.Frag{codegen.Seq(1)}},
		}}},
		{"unknown callee", codegen.ImageSpec{Fns: []codegen.FnSpec{
			{Name: "a", Body: []codegen.Frag{codegen.Call{Fn: "zzz"}}},
		}}},
		{"auto fn with site", codegen.ImageSpec{Fns: []codegen.FnSpec{
			{Name: "a", Auto: true, Body: []codegen.Frag{codegen.If{Site: "s", Then: []codegen.Frag{codegen.Seq(1)}}}},
		}}},
		{"auto calls engine", codegen.ImageSpec{Fns: []codegen.FnSpec{
			{Name: "eng", Body: []codegen.Frag{codegen.Seq(1)}},
			{Name: "a", Auto: true, Body: []codegen.Frag{codegen.Call{Fn: "eng"}}},
		}}},
		{"bad autoloop prob", codegen.ImageSpec{Fns: []codegen.FnSpec{
			{Name: "a", Auto: true, Body: []codegen.Frag{codegen.AutoLoop{Prob: 1.5}}},
		}}},
		{"empty autopick", codegen.ImageSpec{Fns: []codegen.FnSpec{
			{Name: "a", Auto: true, Body: []codegen.Frag{codegen.AutoPick{}}},
		}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.spec.TextBase = isa.AppTextBase
			if _, err := codegen.Build(tc.spec); err == nil {
				t.Fatal("expected build error")
			}
		})
	}
}

func TestGenLayerAndColdBuild(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	leafSpecs, leafNames := codegen.GenLayer(r, codegen.LibConfig{
		Prefix: "leaf", N: 20, MeanWords: 50,
	}, nil)
	topSpecs, _ := codegen.GenLayer(r, codegen.LibConfig{
		Prefix: "top", N: 10, MeanWords: 40, CallsPerFn: 2, PickWidth: 4,
	}, leafNames)
	cold := codegen.GenCold(r, "cold", 10_000, 500)
	fns := append(append(leafSpecs, topSpecs...), cold...)
	img, err := codegen.Build(codegen.ImageSpec{Name: "lib", TextBase: isa.AppTextBase, Fns: fns})
	if err != nil {
		t.Fatal(err)
	}
	st := img.Prog.ComputeStats()
	if st.ColdProcs == 0 {
		t.Fatal("no cold procs")
	}
	// Cold code should be close to the requested amount.
	coldWords := st.BodyWords - st.HotWords
	if coldWords < 9_000 || coldWords > 13_000 {
		t.Fatalf("cold words = %d", coldWords)
	}
	// Auto walk every top function to completion repeatedly.
	l, err := program.BaselineLayout(img.Prog)
	if err != nil {
		t.Fatal(err)
	}
	e := codegen.NewEmitter(img, l, 3)
	e.Sink = func(uint64, int32) {}
	for i := 0; i < 50; i++ {
		e.RunAuto("top_3")
	}
	if !e.Idle() {
		t.Fatal("walker stuck")
	}
	if e.Instructions == 0 {
		t.Fatal("no instructions")
	}
}

func TestAutoPickRespectsWeights(t *testing.T) {
	img, err := codegen.Build(codegen.ImageSpec{
		Name:     "w",
		TextBase: isa.AppTextBase,
		Fns: []codegen.FnSpec{
			{Name: "rare", Auto: true, Body: []codegen.Frag{codegen.Seq(1)}},
			{Name: "hot", Auto: true, Body: []codegen.Frag{codegen.Seq(2)}},
			{Name: "top", Auto: true, Body: []codegen.Frag{
				codegen.AutoPick{Fns: []string{"rare", "hot"}, Weights: []uint32{1, 99}},
			}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	l, _ := program.BaselineLayout(img.Prog)
	e := codegen.NewEmitter(img, l, 11)
	e.Sink = func(uint64, int32) {}
	px := profile.NewPixie(img.Prog, "w")
	e.Collector = px
	for i := 0; i < 2000; i++ {
		e.RunAuto("top")
	}
	rareEntry := img.Prog.FindProc("rare").Entry()
	hotEntry := img.Prog.FindProc("hot").Entry()
	rareN := px.Profile.Count(rareEntry)
	hotN := px.Profile.Count(hotEntry)
	if rareN+hotN != 2000 {
		t.Fatalf("picks = %d", rareN+hotN)
	}
	if rareN > 100 || hotN < 1900 {
		t.Fatalf("weights ignored: rare=%d hot=%d", rareN, hotN)
	}
}

// TestAutoAnnotationsFollowClones checks the block-indexed auto annotations:
// they cover every block, Specialize copies them without sharing the base
// image's slices, and a clone's blocks carry their originals' PRNG arms.
func TestAutoAnnotationsFollowClones(t *testing.T) {
	img, err := codegen.Build(codegen.ImageSpec{
		Name:     "t",
		TextBase: isa.AppTextBase,
		Fns: []codegen.FnSpec{
			{Name: "leaf", Auto: true, Body: []codegen.Frag{codegen.Seq(2)}},
			{Name: "helper", Auto: true, Body: []codegen.Frag{
				codegen.AutoIf{Prob: 0.25, Then: []codegen.Frag{codegen.Seq(3)}},
				codegen.AutoLoop{Prob: 0.5, Head: 1, Body: []codegen.Frag{codegen.Seq(1)}},
				codegen.AutoPick{Fns: []string{"leaf", "leaf"}, Weights: []uint32{1, 3}},
			}},
			{Name: "engine", Body: []codegen.Frag{
				codegen.If{Site: "cond", Then: []codegen.Frag{codegen.Seq(2)}},
				codegen.Call{Fn: "helper"},
			}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	covered := func(img *codegen.Image) {
		t.Helper()
		if n := len(img.Prog.Blocks); len(img.AutoProb) != n || len(img.AutoCum) != n {
			t.Fatalf("annotations cover %d/%d of %d blocks", len(img.AutoProb), len(img.AutoCum), n)
		}
	}
	covered(img)
	var probs, cums int
	for id := range img.Prog.Blocks {
		if !math.IsNaN(img.AutoProb[id]) {
			probs++
		}
		if img.AutoCum[id] != nil {
			cums++
		}
	}
	if probs != 2 || cums != 1 {
		t.Fatalf("%d auto Cond and %d auto Indirect blocks, want 2 and 1", probs, cums)
	}

	spec := img.Specialize()
	helper := spec.Fns["helper"].Proc
	clone, err := spec.CloneProc(helper.ID, "k")
	if err != nil {
		t.Fatal(err)
	}
	// A second specialization grows its own annotations, not spec's.
	spec2 := img.Specialize()
	if _, err := spec2.CloneProc(spec2.Fns["leaf"].Proc.ID, "k"); err != nil {
		t.Fatal(err)
	}
	covered(spec)
	covered(spec2)
	covered(img)
	orig, cl := helper.Blocks, spec.Prog.Proc(clone).Blocks
	for i := range orig {
		o, c := orig[i], cl[i]
		po, pc := spec.AutoProb[o], spec.AutoProb[c]
		if po != pc && !(math.IsNaN(po) && math.IsNaN(pc)) {
			t.Errorf("clone block %d prob %v, original %v", c, pc, po)
		}
		if !reflect.DeepEqual(spec.AutoCum[o], spec.AutoCum[c]) {
			t.Errorf("clone block %d weights %v, original %v", c, spec.AutoCum[c], spec.AutoCum[o])
		}
	}
}
