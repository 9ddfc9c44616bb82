package codelayout_test

import (
	"math/rand"
	"testing"

	"codelayout"
	"codelayout/internal/appmodel"
	"codelayout/internal/kernel"
	"codelayout/internal/machine"
	"codelayout/internal/progtest"
	"codelayout/internal/tpcb"
)

func TestFacadeOptimizePipeline(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	p := progtest.RandProgram(r, 8)
	pf := progtest.RandProfile(r, p, 20, 300)
	l, rep, err := codelayout.Optimize(p, pf, "all")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if rep.Units == 0 {
		t.Fatal("empty report")
	}
}

func TestFacadePassPipeline(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	p := progtest.RandProgram(r, 6)
	pf := progtest.RandProfile(r, p, 20, 300)
	pl, err := codelayout.ParsePipeline("chain,split:fine,porder:ph")
	if err != nil {
		t.Fatal(err)
	}
	l, rep, err := pl.Run(p, pf)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// The same pipeline through its combo name is identical.
	want, _, err := codelayout.Optimize(p, pf, "all")
	if err != nil {
		t.Fatal(err)
	}
	for b := range l.Addr {
		if l.Addr[b] != want.Addr[b] {
			t.Fatalf("pipeline and Optimize diverged at block %d", b)
		}
	}
	if rep.Units == 0 {
		t.Fatal("empty report")
	}
	if _, _, err := codelayout.Optimize(p, pf, "ipchain"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := codelayout.Optimize(p, pf, "nope"); err == nil {
		t.Fatal("expected error for an unknown combo")
	}
}

// TestFacadeCombosMatchPaper: the paper's six combinations are reachable by
// name through the facade's Optimize, each giving a valid layout.
func TestFacadeCombosMatchPaper(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	p := progtest.RandProgram(r, 6)
	pf := progtest.RandProfile(r, p, 20, 300)
	for _, name := range []string{"base", "porder", "chain", "chain+split", "chain+porder", "all"} {
		l, _, err := codelayout.Optimize(p, pf, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestFacadeMachineRun drives the facade's profile-and-optimize loop end to
// end: images and the machine come from the internal packages, the layouts,
// the profile collector and the optimization from the facade.
func TestFacadeMachineRun(t *testing.T) {
	cfg := appmodel.DefaultConfig(1, tpcb.New())
	cfg.LibScale = 0.15
	cfg.ColdWords = 50_000
	img, err := appmodel.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	kcfg := kernel.DefaultConfig(2)
	kcfg.ColdWords = 20_000
	kern, err := kernel.Build(kcfg)
	if err != nil {
		t.Fatal(err)
	}
	appL, err := codelayout.BaselineLayout(img.Prog)
	if err != nil {
		t.Fatal(err)
	}
	kernL, err := codelayout.BaselineLayout(kern.Prog)
	if err != nil {
		t.Fatal(err)
	}
	px := codelayout.NewPixie(img.Prog, "train")
	m, err := machine.New(machine.Config{
		CPUs: 1, ProcsPerCPU: 2, Seed: 3,
		WarmupTxns: 2, Transactions: 20,
		Workload: tpcb.NewScaled(tpcb.Scale{Branches: 3, TellersPerBranch: 3, AccountsPerBranch: 100}),
		AppImage: img, AppLayout: appL,
		KernImage: kern, KernLayout: kernL,
		AppCollector: px,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 20 || px.Profile.TotalBlocks() == 0 {
		t.Fatalf("committed=%d profileBlocks=%d", res.Committed, px.Profile.TotalBlocks())
	}
	// The collected profile should drive a working optimization.
	opt, _, err := codelayout.Optimize(img.Prog, px.Profile, "all")
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeWorkloadRegistry(t *testing.T) {
	names := codelayout.Workloads()
	want := map[string]bool{"tpcb": false, "ordere": false, "ycsb": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Fatalf("workload %q not registered (have %v)", n, names)
		}
	}
	if codelayout.YCSB().Name() != "ycsb" {
		t.Fatal("YCSB() helper broken")
	}
	if _, err := codelayout.NewWorkload("nope"); err == nil {
		t.Fatal("expected error for unknown workload")
	}
}

func TestFacadeRegisterWorkload(t *testing.T) {
	mk := func() codelayout.Workload { return codelayout.YCSBMix("facade-mix", 50) }
	if err := codelayout.RegisterWorkload("facade-mix", mk); err != nil {
		t.Fatal(err)
	}
	if err := codelayout.RegisterWorkload("facade-mix", mk); err == nil {
		t.Fatal("duplicate registration must error, not panic")
	}
	wl, err := codelayout.NewWorkload("facade-mix")
	if err != nil {
		t.Fatal(err)
	}
	if wl.Name() != "facade-mix" {
		t.Fatalf("name = %q", wl.Name())
	}
	found := false
	for _, n := range codelayout.Workloads() {
		if n == "facade-mix" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered mix missing from Workloads()")
	}
}

// TestFacadeTrainEvalSeam: the train/eval split is reachable through the
// facade — a shared profile source, a session over it, and a transplanted
// measurement keyed separately from the self-trained one.
func TestFacadeTrainEvalSeam(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	o := codelayout.QuickSessionOptions()
	o.Transactions = 30
	o.WarmupTxns = 10
	o.Train.Txns = 80
	o.CPUs = 1
	o.ProcsPerCPU = 3
	o.LibScale = 0.2
	o.ColdWords = 200_000
	o.KernColdWords = 60_000
	o.Workload = tpcb.NewScaled(tpcb.Scale{Branches: 4, TellersPerBranch: 3, AccountsPerBranch: 100})
	stock := codelayout.YCSB().QuickScale()
	src, err := codelayout.NewProfileSource(o, stock)
	if err != nil {
		t.Fatal(err)
	}
	s, err := codelayout.NewSessionFrom(src, o)
	if err != nil {
		t.Fatal(err)
	}
	self, err := s.Measure("all", o.CPUs)
	if err != nil {
		t.Fatal(err)
	}
	cross, err := s.MeasureFrom(codelayout.TrainConfig{Workload: stock}, "all", o.CPUs)
	if err != nil {
		t.Fatal(err)
	}
	if self == cross {
		t.Fatal("transplanted measure aliases the self-trained memo entry")
	}
}
