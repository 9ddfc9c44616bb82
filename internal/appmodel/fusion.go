package appmodel

import (
	"fmt"

	"codelayout/internal/codegen"
	"codelayout/internal/core"
	"codelayout/internal/isa"
	"codelayout/internal/profile"
	"codelayout/internal/program"
	"codelayout/internal/workload"
)

// BuildLayout runs a layout pipeline over an app image trained by pf and
// returns the layout, its report, and the image the layout addresses. This
// is the one place a fusing pipeline (core.Pipeline.Fuses) is told apart:
// it runs over a specialized copy of img, so txfuse can clone shared
// procedures into real code, with the kind roots the workloads declare (in
// argument order) and a private deep copy of pf, since txfuse moves counts
// onto the clones; the grown image is returned and the layout must fit the
// app text map. Every other pipeline runs over img itself. Neither img nor
// pf is modified.
func BuildLayout(img *codegen.Image, pl core.Pipeline, pf *profile.Profile, wls ...workload.Workload) (*program.Layout, *core.Report, *codegen.Image, error) {
	if !pl.Fuses() {
		// The pipeline only reads the profile, except that EnsureEdges
		// estimates the edges of a sampled one: give it a fresh edge map
		// then, so the caller's instance stays untouched.
		cp := &profile.Profile{Name: pf.Name, BlockCount: pf.BlockCount}
		if pf.HasEdges() {
			cp.EdgeCount = pf.EdgeCount
		}
		l, rep, err := pl.Run(img.Prog, cp)
		return l, rep, img, err
	}
	simg := img.Specialize()
	roots, err := FusionRoots(simg, wls...)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(roots) == 0 {
		names := make([]string, len(wls))
		for i, w := range wls {
			names[i] = w.Name()
		}
		return nil, nil, nil, fmt.Errorf("appmodel: pipeline %s fuses transaction kinds, but none of the workloads %v declares kind roots", pl, names)
	}
	l, rep, err := pl.RunFused(simg.Prog, pf.Clone(), roots, simg)
	if err != nil {
		return nil, nil, nil, err
	}
	if l.TotalBytes() > isa.AppTextLimitBytes {
		return nil, nil, nil, fmt.Errorf("appmodel: fused layout is %d bytes, past the %d-byte app text map; lower the txfuse clone budget",
			l.TotalBytes(), isa.AppTextLimitBytes)
	}
	return l, rep, simg, nil
}

// FusionRoots resolves the transaction-kind roots the given workloads
// declare (workload.KindRoots) against an image, in argument order, for the
// txfuse pipeline's RunFused entry. Workloads that declare no roots
// contribute nothing; a declared root function missing from the image is an
// error. Two kinds naming one model resolve to a single root.
func FusionRoots(img *codegen.Image, wls ...workload.Workload) ([]core.KindRoot, error) {
	var roots []core.KindRoot
	seen := make(map[program.ProcID]bool)
	for _, w := range wls {
		kr, ok := w.(workload.KindRoots)
		if !ok {
			continue
		}
		for _, r := range kr.KindRoots() {
			fn, ok := img.Fns[r.Root]
			if !ok {
				return nil, fmt.Errorf("appmodel: fusion root %q (workload %s, kind %s) is not modeled in the image", r.Root, w.Name(), r.Kind)
			}
			if seen[fn.Proc.ID] {
				continue
			}
			seen[fn.Proc.ID] = true
			roots = append(roots, core.KindRoot{Kind: r.Kind, Proc: fn.Proc.ID})
		}
	}
	return roots, nil
}
