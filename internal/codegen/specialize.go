package codegen

import (
	"fmt"

	"codelayout/internal/program"
)

// Specialize returns a deep copy of the image whose program may grow
// per-transaction-kind procedure clones (CloneProc). Original ProcIDs and
// BlockIDs are preserved, so profiles trained on the base image map onto
// the specialized one unchanged, and the base image is never mutated.
func (img *Image) Specialize() *Image {
	src := img.Prog
	out := &Image{
		Prog:     program.New(src.Name, src.TextBase),
		Fns:      make(map[string]*Fn, len(img.Fns)),
		Site:     make(map[program.BlockID]string, len(img.Site)),
		AutoProb: append([]float64(nil), img.AutoProb...),
		AutoCum:  append([][]uint32(nil), img.AutoCum...),
	}
	for _, pr := range src.Procs {
		np := out.Prog.AddProc(pr.Name)
		np.Cold = pr.Cold
		fn := img.fnByProc[pr.ID]
		nf := &Fn{Name: fn.Name, Auto: fn.Auto, CloneOf: fn.CloneOf, Proc: np}
		out.Fns[nf.Name] = nf
		out.fnByProc = append(out.fnByProc, nf)
	}
	// Blocks are appended in program order (not proc order) so IDs match.
	for _, b := range src.Blocks {
		nb := out.Prog.AddBlock(out.Prog.Proc(b.Proc), int(b.Body))
		nb.Kind = b.Kind
		nb.Fall = b.Fall
		nb.Taken = b.Taken
		nb.Callee = b.Callee
		nb.Targets = append([]program.BlockID(nil), b.Targets...)
	}
	for id, site := range img.Site {
		out.Site[id] = site
	}
	return out
}

// CloneProc implements the layout pipeline's procedure-cloning seam
// (core.ProcCloner): it appends a copy of procedure id named "orig@tag",
// copying block bodies, terminators and emitter annotations, with
// intra-procedure successors remapped onto the clone's blocks. Calls out of
// the clone keep their original callees until the caller rewires them. The
// clone replays the original's engine events (Fn.CloneOf), so the emitter
// accepts it wherever the original was expected.
func (img *Image) CloneProc(id program.ProcID, tag string) (program.ProcID, error) {
	if int(id) >= len(img.Prog.Procs) {
		return program.NoProc, fmt.Errorf("codegen: clone of unknown proc %d", id)
	}
	orig := img.Prog.Proc(id)
	fnOrig := img.fnByProc[id]
	name := orig.Name + "@" + tag
	if _, dup := img.Fns[name]; dup {
		return program.NoProc, fmt.Errorf("codegen: duplicate clone %q", name)
	}
	pr := img.Prog.AddProc(name)
	pr.Cold = orig.Cold

	remap := make(map[program.BlockID]program.BlockID, len(orig.Blocks))
	for _, obid := range orig.Blocks {
		ob := img.Prog.Block(obid)
		nb := img.Prog.AddBlock(pr, int(ob.Body))
		nb.Kind = ob.Kind
		nb.Fall = ob.Fall
		nb.Taken = ob.Taken
		nb.Callee = ob.Callee
		nb.Targets = append([]program.BlockID(nil), ob.Targets...)
		remap[obid] = nb.ID
	}
	img.growAuto()
	local := func(b program.BlockID) program.BlockID {
		if nb, ok := remap[b]; ok {
			return nb
		}
		return b // inter-procedure reference: keep the original target
	}
	for _, obid := range orig.Blocks {
		nb := img.Prog.Block(remap[obid])
		if nb.Fall != program.NoBlock {
			nb.Fall = local(nb.Fall)
		}
		if nb.Taken != program.NoBlock {
			nb.Taken = local(nb.Taken)
		}
		for i, t := range nb.Targets {
			nb.Targets[i] = local(t)
		}
		if site, ok := img.Site[obid]; ok {
			img.Site[nb.ID] = site
		}
		img.AutoProb[nb.ID] = img.AutoProb[obid]
		img.AutoCum[nb.ID] = img.AutoCum[obid]
	}

	fn := &Fn{Name: name, Auto: fnOrig.Auto, Proc: pr, CloneOf: fnOrig.EventName()}
	img.Fns[name] = fn
	img.fnByProc = append(img.fnByProc, fn)
	return pr.ID, nil
}
