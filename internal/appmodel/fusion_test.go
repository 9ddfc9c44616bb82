package appmodel_test

import (
	"reflect"
	"testing"

	"codelayout/internal/appmodel"
	"codelayout/internal/core"
	"codelayout/internal/kernel"
	"codelayout/internal/machine"
	"codelayout/internal/ordere"
	"codelayout/internal/profile"
	"codelayout/internal/program"
)

// TestBuildLayoutKeepsCallerProfile pins the fused-image step: txfuse moves
// block and edge counts onto the procedures it clones, so BuildLayout must
// hand it a private copy. The caller's profile — a profile store's cached
// entry, say — stays deep-equal, and the caller's image never grows.
func TestBuildLayoutKeepsCallerProfile(t *testing.T) {
	// Order-entry's kinds share engine code, so fusing them clones it.
	wl := ordere.NewScaled(ordere.Scale{Warehouses: 2, DistrictsPerWarehouse: 3, CustomersPerDistrict: 40, Items: 120})
	img, err := appmodel.Build(appmodel.Config{Seed: 3, LibScale: 0.2, ColdWords: 50_000, Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	kern, err := kernel.Build(kernel.Config{Seed: 4, ColdWords: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	appL, err := program.BaselineLayout(img.Prog)
	if err != nil {
		t.Fatal(err)
	}
	kernL, err := program.BaselineLayout(kern.Prog)
	if err != nil {
		t.Fatal(err)
	}
	px := profile.NewPixie(img.Prog, "train")
	m, err := machine.New(machine.Config{
		CPUs: 1, ProcsPerCPU: 2, Seed: 5, WarmupTxns: 5, Transactions: 60,
		Workload: wl, AppImage: img, AppLayout: appL, KernImage: kern, KernLayout: kernL,
		AppCollector: px,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	prof := px.Profile
	want := prof.Clone()
	blocks := img.Prog.NumBlocks()

	for _, name := range []string{"fusion", "all"} {
		pl, err := core.Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		l, rep, got, err := appmodel.BuildLayout(img, pl, prof, wl)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pl.Fuses() {
			if got == img || rep.ClonedProcs == 0 {
				t.Fatalf("%s: want a specialized image with clones, got shared=%v cloned=%d",
					name, got == img, rep.ClonedProcs)
			}
		} else if got != img {
			t.Fatalf("%s: a non-fusing pipeline must run over the caller's image", name)
		}
		if !reflect.DeepEqual(prof, want) {
			t.Fatalf("%s: building the layout modified the caller's profile", name)
		}
		if img.Prog.NumBlocks() != blocks {
			t.Fatalf("%s: the caller's image grew from %d to %d blocks", name, blocks, img.Prog.NumBlocks())
		}
	}

	// Without a workload declaring kind roots there is nothing to fuse.
	fusion, err := core.Resolve("fusion")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := appmodel.BuildLayout(img, fusion, prof); err == nil {
		t.Fatal("expected an error for a fusing pipeline with no kind roots")
	}
}
