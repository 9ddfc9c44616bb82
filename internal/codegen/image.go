package codegen

import (
	"fmt"
	"math"

	"codelayout/internal/isa"
	"codelayout/internal/program"
)

// Fn is a modeled function inside a built image.
type Fn struct {
	Name string
	Auto bool
	Proc *program.Procedure
	// CloneOf names the original function this Fn was cloned from by the
	// fusion specializer (empty for functions built from a spec). Clones
	// replay the original's probe events under the original's name.
	CloneOf string
}

// EventName returns the probe-event name this function answers to: its own
// name, or — for a fusion clone — the name of the function it was cloned
// from.
func (fn *Fn) EventName() string {
	if fn.CloneOf != "" {
		return fn.CloneOf
	}
	return fn.Name
}

// Image is a modeled binary: the program plus the annotations the emitter
// needs to replay engine events over it.
type Image struct {
	Prog *program.Program
	Fns  map[string]*Fn
	// fnByProc maps ProcID to Fn.
	fnByProc []*Fn
	// Site names the engine decision site implemented by a block (Cond or
	// Indirect terminators).
	Site map[program.BlockID]string
	// AutoProb, indexed by BlockID, gives the PRNG probability of the Fall
	// arm for auto Cond blocks and NaN for every other block.
	AutoProb []float64
	// AutoCum, indexed by BlockID, gives cumulative PRNG weights for auto
	// Indirect blocks, parallel to Block.Targets, and nil for every other
	// block. The weight slices are never mutated, so images share them.
	AutoCum [][]uint32
}

// growAuto extends AutoProb and AutoCum to cover every block of the program,
// marking the new blocks as not auto.
func (img *Image) growAuto() {
	for len(img.AutoProb) < len(img.Prog.Blocks) {
		img.AutoProb = append(img.AutoProb, math.NaN())
		img.AutoCum = append(img.AutoCum, nil)
	}
}

// FnOf returns the modeled function owning the procedure.
func (img *Image) FnOf(id program.ProcID) *Fn { return img.fnByProc[id] }

// Entry returns the entry block of the named function.
func (img *Image) Entry(name string) (program.BlockID, error) {
	fn, ok := img.Fns[name]
	if !ok {
		return program.NoBlock, fmt.Errorf("codegen: unknown function %q", name)
	}
	return fn.Proc.Entry(), nil
}

// Build lowers an image spec into a program plus emitter annotations.
func Build(spec ImageSpec) (*Image, error) {
	img := &Image{
		Prog: program.New(spec.Name, spec.TextBase),
		Fns:  make(map[string]*Fn, len(spec.Fns)),
		Site: make(map[program.BlockID]string),
	}
	// First pass: declare procedures so calls can resolve in any order.
	for _, fs := range spec.Fns {
		if _, dup := img.Fns[fs.Name]; dup {
			return nil, fmt.Errorf("codegen: duplicate function %q", fs.Name)
		}
		pr := img.Prog.AddProc(fs.Name)
		pr.Cold = fs.Cold
		fn := &Fn{Name: fs.Name, Auto: fs.Auto, Proc: pr}
		img.Fns[fs.Name] = fn
		img.fnByProc = append(img.fnByProc, fn)
	}
	// Second pass: lower bodies.
	for _, fs := range spec.Fns {
		lo := &lowerer{img: img, pr: img.Fns[fs.Name].Proc, auto: fs.Auto, fname: fs.Name}
		if err := lo.lowerFn(fs.Body); err != nil {
			return nil, err
		}
	}
	if err := img.Prog.Validate(); err != nil {
		return nil, fmt.Errorf("codegen: lowered program invalid: %w", err)
	}
	if err := img.checkAutoClosure(); err != nil {
		return nil, err
	}
	return img, nil
}

// checkAutoClosure verifies auto functions only reach auto constructs.
func (img *Image) checkAutoClosure() error {
	for _, fn := range img.Fns {
		if !fn.Auto {
			continue
		}
		for _, bid := range fn.Proc.Blocks {
			b := img.Prog.Block(bid)
			switch b.Kind {
			case isa.TermCond, isa.TermIndirect:
				if site, ok := img.Site[bid]; ok {
					return fmt.Errorf("codegen: auto fn %q has engine site %q", fn.Name, site)
				}
			case isa.TermCall:
				callee := img.FnOf(b.Callee)
				if !callee.Auto {
					return fmt.Errorf("codegen: auto fn %q calls engine fn %q", fn.Name, callee.Name)
				}
			}
		}
	}
	return nil
}

// lowerer lowers one function body.
type lowerer struct {
	img   *Image
	pr    *program.Procedure
	auto  bool
	fname string
	err   error
}

// patch is a pending successor assignment.
type patch func(program.BlockID)

func (lo *lowerer) newBlock() *program.Block {
	b := lo.img.Prog.AddBlock(lo.pr, 0)
	lo.img.growAuto()
	return b
}

func (lo *lowerer) fail(format string, args ...interface{}) {
	if lo.err == nil {
		lo.err = fmt.Errorf("codegen: fn %q: "+format, append([]interface{}{lo.fname}, args...)...)
	}
}

// lowerFn lowers the whole body and seals every exit with a return block.
func (lo *lowerer) lowerFn(body []Frag) error {
	entry, exits := lo.region(body)
	_ = entry // the first created block is the proc entry by construction
	if len(exits) > 0 {
		ret := lo.newBlock()
		ret.Kind = isa.TermRet
		for _, p := range exits {
			p(ret.ID)
		}
	}
	return lo.err
}

// region lowers a fragment list into fresh blocks. It returns the region's
// entry block and the patches for every exit that should continue at
// whatever follows the region.
func (lo *lowerer) region(frags []Frag) (program.BlockID, []patch) {
	open := lo.newBlock()
	entry := open.ID

	// seal closes the open block with the given terminator, returning it.
	// After sealing, callers must either set open to a new block or finish.
	for _, f := range frags {
		if lo.err != nil {
			return entry, nil
		}
		switch fr := f.(type) {
		case Seq:
			if fr < 0 {
				lo.fail("negative Seq")
				return entry, nil
			}
			open.Body += int32(fr)

		case Ret:
			open.Kind = isa.TermRet
			// Anything after Ret in the same region is unreachable.
			return entry, nil

		case If:
			open = lo.lowerIf(open, fr.Site, 0, fr.Then, fr.Else)

		case AutoIf:
			open = lo.lowerIf(open, "", fr.Prob, fr.Then, fr.Else)

		case Loop:
			open = lo.lowerLoop(open, fr.Site, 0, fr.Head, fr.Body)

		case AutoLoop:
			if fr.Prob < 0 || fr.Prob >= 1 {
				lo.fail("AutoLoop prob %v outside [0,1)", fr.Prob)
				return entry, nil
			}
			open = lo.lowerLoop(open, "", fr.Prob, fr.Head, fr.Body)

		case Call:
			open.Kind = isa.TermCall
			callee, ok := lo.img.Fns[fr.Fn]
			if !ok {
				lo.fail("call to unknown fn %q", fr.Fn)
				return entry, nil
			}
			open.Callee = callee.Proc.ID
			cont := lo.newBlock()
			open.Fall = cont.ID
			open = cont

		case Switch:
			open = lo.lowerSwitch(open, fr.Site, fr.Cases, nil, nil)

		case AutoPick:
			if len(fr.Fns) == 0 {
				lo.fail("empty AutoPick")
				return entry, nil
			}
			open = lo.lowerSwitch(open, "", nil, fr.Fns, fr.Weights)

		default:
			lo.fail("unknown fragment %T", f)
			return entry, nil
		}
	}
	// The open block is the region's exit.
	open.Kind = isa.TermFallThrough
	id := open.ID
	return entry, []patch{func(b program.BlockID) { lo.img.Prog.Block(id).Fall = b }}
}

func (lo *lowerer) lowerIf(open *program.Block, site string, prob float64, then, els []Frag) *program.Block {
	if site != "" && lo.auto {
		lo.fail("engine If %q inside auto fn", site)
		return open
	}
	open.Kind = isa.TermCond
	cond := open.ID
	thenE, thenX := lo.region(then)
	lo.img.Prog.Block(cond).Fall = thenE
	var elseX []patch
	var pending []patch
	if len(els) > 0 {
		elseE, x := lo.region(els)
		lo.img.Prog.Block(cond).Taken = elseE
		elseX = x
	} else {
		id := cond
		pending = append(pending, func(b program.BlockID) { lo.img.Prog.Block(id).Taken = b })
	}
	join := lo.newBlock()
	for _, p := range thenX {
		p(join.ID)
	}
	for _, p := range elseX {
		p(join.ID)
	}
	for _, p := range pending {
		p(join.ID)
	}
	// Degenerate conditional guard: with an empty Then region, the then
	// entry is an empty fall block, distinct from join, so Taken != Fall
	// always holds here by construction.
	if site != "" {
		lo.img.Site[cond] = site
	} else {
		lo.img.AutoProb[cond] = prob
	}
	return join
}

func (lo *lowerer) lowerLoop(open *program.Block, site string, prob float64, headWords int, body []Frag) *program.Block {
	if site != "" && lo.auto {
		lo.fail("engine Loop %q inside auto fn", site)
		return open
	}
	head := lo.newBlock()
	head.Body = int32(headWords)
	head.Kind = isa.TermCond
	open.Kind = isa.TermFallThrough
	open.Fall = head.ID
	headID := head.ID
	bodyE, bodyX := lo.region(body)
	lo.img.Prog.Block(headID).Fall = bodyE
	for _, p := range bodyX {
		p(headID) // back edge
	}
	join := lo.newBlock()
	lo.img.Prog.Block(headID).Taken = join.ID
	if site != "" {
		lo.img.Site[headID] = site
	} else {
		lo.img.AutoProb[headID] = prob
	}
	return join
}

func (lo *lowerer) lowerSwitch(open *program.Block, site string, cases [][]Frag, pickFns []string, weights []uint32) *program.Block {
	if site != "" && lo.auto {
		lo.fail("engine Switch %q inside auto fn", site)
		return open
	}
	open.Kind = isa.TermIndirect
	sw := open.ID
	join := lo.newBlock()
	if pickFns != nil {
		// Indirect call dispatch: one call stub per target function.
		if weights != nil && len(weights) != len(pickFns) {
			lo.fail("AutoPick weights/fns mismatch")
			return join
		}
		var cum []uint32
		var acc uint32
		for i, name := range pickFns {
			callee, ok := lo.img.Fns[name]
			if !ok {
				lo.fail("AutoPick of unknown fn %q", name)
				return join
			}
			stub := lo.newBlock()
			stub.Kind = isa.TermCall
			stub.Callee = callee.Proc.ID
			stub.Fall = join.ID
			lo.img.Prog.Block(sw).Targets = append(lo.img.Prog.Block(sw).Targets, stub.ID)
			w := uint32(1)
			if weights != nil {
				w = weights[i]
			}
			acc += w
			cum = append(cum, acc)
		}
		lo.img.AutoCum[sw] = cum
		return join
	}
	if len(cases) == 0 {
		lo.fail("Switch %q with no cases", site)
		return join
	}
	for _, c := range cases {
		ce, cx := lo.region(c)
		lo.img.Prog.Block(sw).Targets = append(lo.img.Prog.Block(sw).Targets, ce)
		for _, p := range cx {
			p(join.ID)
		}
	}
	lo.img.Site[sw] = site
	return join
}
