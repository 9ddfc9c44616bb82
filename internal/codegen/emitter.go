package codegen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"codelayout/internal/isa"
	"codelayout/internal/program"
)

// Collector receives logical block transitions (the Pixie instrumentation
// hook). prev is NoBlock at top-level entries.
type Collector interface {
	Block(prev, cur program.BlockID)
}

// Emitter replays engine events over the image's CFG under a specific
// layout, producing the instruction address runs the modeled binary would
// fetch. It implements the event half of probe.Probe (Enter/Leave/Branch/
// Case); Data and Syscall are forwarded to machine hooks.
//
// The emitter is a resumable CFG walker: it auto-advances through
// straight-line code, PRNG-resolved branches and auto-function calls, and
// stops exactly at the blocks whose outcome the engine must report. A
// mismatch between the engine's events and the model's structure panics with
// a diagnostic, so model drift is caught immediately in tests.
type Emitter struct {
	Img *Image
	L   *program.Layout
	// Sink receives each fetched address run.
	Sink func(addr uint64, words int32)
	// Collector, if non-nil, receives exact block/edge counts (Pixie).
	Collector Collector
	// Rng resolves auto branches, loops and picks.
	Rng *rand.Rand
	// OnData and OnSyscall forward the corresponding probe events.
	OnData    func(addr uint64, bytes int, write bool)
	OnSyscall func(name string)

	stack []eframe
	cur   program.BlockID
	prev  program.BlockID

	// unwinding suppresses probe events while a transaction-abort longjmp
	// (db.ErrDeadlock) propagates through instrumented frames whose
	// deferred Leave calls would otherwise fire mid-model; Reset re-arms.
	unwinding bool

	// Instructions counts words emitted through Sink.
	Instructions uint64
}

type eframe struct {
	name      string
	auto      bool
	callBlock program.BlockID
	cont      program.BlockID
}

// maxAutoDepth bounds auto-call recursion; the generated libraries are DAGs,
// so hitting it means a model bug.
const maxAutoDepth = 512

// NewEmitter creates an emitter over the image and layout.
func NewEmitter(img *Image, l *program.Layout, seed int64) *Emitter {
	return &Emitter{
		Img:  img,
		L:    l,
		Rng:  rand.New(rand.NewSource(seed)),
		cur:  program.NoBlock,
		prev: program.NoBlock,
	}
}

// Idle reports whether the emitter has no in-flight function.
func (e *Emitter) Idle() bool { return e.cur == program.NoBlock && len(e.stack) == 0 }

// SetLayout swaps the emitter onto a new layout of the same program — the
// machine's epoch-fenced hot-swap point. Mid-function the walker's notion of
// "current address" would go stale, so the emitter must be idle (between
// transactions); swapping while busy is a scheduling bug and panics.
func (e *Emitter) SetLayout(l *program.Layout) {
	if !e.Idle() {
		panic("codegen: SetLayout while a function is in flight")
	}
	if l.Prog != e.Img.Prog {
		panic("codegen: SetLayout with a layout of a different program")
	}
	e.L = l
}

// AbortUnwind implements db.Aborter: it suppresses all probe events until
// Reset, modeling the engine's longjmp out of a deadlock victim — the
// deferred Leave calls that run while the panic propagates reflect Go stack
// unwinding, not modeled instruction fetch.
func (e *Emitter) AbortUnwind() { e.unwinding = true }

// Reset abandons any in-flight function and re-arms event delivery. The
// machine calls it after recovering a deadlock-victim panic, before
// replaying the abort path (txn_abort) from idle.
func (e *Emitter) Reset() {
	e.unwinding = false
	e.stack = e.stack[:0]
	e.cur = program.NoBlock
	e.prev = program.NoBlock
}

func (e *Emitter) emit(addr uint64, words int32) {
	if words <= 0 {
		return
	}
	e.Instructions += uint64(words)
	if e.Sink != nil {
		e.Sink(addr, words)
	}
}

// transition emits block b's run for an exit to succ and arrives at succ.
func (e *Emitter) transition(b *program.Block, succ program.BlockID) {
	e.emit(e.L.Addr[b.ID], e.L.ExecWords(b, succ))
	e.prev = b.ID
	e.cur = succ
	if succ != program.NoBlock && e.Collector != nil {
		e.Collector.Block(b.ID, succ)
	}
}

// enterCall emits the call block's run and pushes the callee frame.
func (e *Emitter) enterCall(b *program.Block, callee *Fn) {
	e.emit(e.L.Addr[b.ID], e.L.ExecWords(b, b.Fall))
	e.stack = append(e.stack, eframe{
		name:      callee.EventName(),
		auto:      callee.Auto,
		callBlock: b.ID,
		cont:      b.Fall,
	})
	entry := callee.Proc.Entry()
	e.prev = b.ID
	e.cur = entry
	if e.Collector != nil {
		e.Collector.Block(b.ID, entry) // call edge
	}
}

// popRet emits the return block's run, pops the frame, and resumes at the
// continuation (through the landing branch if the layout needed one).
func (e *Emitter) popRet(b *program.Block) {
	e.emit(e.L.Addr[b.ID], e.L.ExecWords(b, program.NoBlock))
	f := e.stack[len(e.stack)-1]
	e.stack = e.stack[:len(e.stack)-1]
	if f.cont == program.NoBlock {
		// Top-level return: go idle.
		e.prev = b.ID
		e.cur = program.NoBlock
		return
	}
	if addr, words, ok := e.L.LandingRun(f.callBlock); ok {
		e.emit(addr, words)
	}
	e.prev = f.callBlock
	e.cur = f.cont
	if e.Collector != nil {
		e.Collector.Block(f.callBlock, f.cont) // continuation edge
	}
}

// advance walks the CFG until it needs an engine event (or goes idle).
func (e *Emitter) advance() {
	for e.cur != program.NoBlock {
		b := e.Img.Prog.Block(e.cur)
		switch b.Kind {
		case isa.TermFallThrough:
			e.transition(b, b.Fall)
		case isa.TermBranch:
			e.transition(b, b.Taken)
		case isa.TermCond:
			p := e.Img.AutoProb[b.ID]
			if math.IsNaN(p) {
				return // wait for Branch
			}
			if e.Rng.Float64() < p {
				e.transition(b, b.Fall)
			} else {
				e.transition(b, b.Taken)
			}
		case isa.TermIndirect:
			cum := e.Img.AutoCum[b.ID]
			if cum == nil {
				return // wait for Case
			}
			x := uint32(e.Rng.Int63n(int64(cum[len(cum)-1])))
			k := sort.Search(len(cum), func(i int) bool { return cum[i] > x })
			e.transition(b, b.Targets[k])
		case isa.TermCall:
			callee := e.Img.FnOf(b.Callee)
			if !callee.Auto {
				return // wait for Enter
			}
			if len(e.stack) >= maxAutoDepth {
				panic(fmt.Sprintf("codegen: auto call depth exceeded at %s", callee.Name))
			}
			e.enterCall(b, callee)
		case isa.TermRet:
			if len(e.stack) == 0 {
				e.transition(b, program.NoBlock)
				return
			}
			if !e.stack[len(e.stack)-1].auto {
				return // wait for Leave
			}
			e.popRet(b)
		case isa.TermHalt:
			e.transition(b, program.NoBlock)
			return
		}
	}
}

// Enter implements the probe event: the engine entered fn.
func (e *Emitter) Enter(fn string) {
	if e.unwinding {
		return
	}
	f, ok := e.Img.Fns[fn]
	if !ok {
		panic(fmt.Sprintf("codegen: Enter(%q): unknown function", fn))
	}
	if e.cur == program.NoBlock {
		// Top-level entry (transaction driver).
		e.stack = append(e.stack, eframe{name: fn, callBlock: program.NoBlock, cont: program.NoBlock})
		e.prev = program.NoBlock
		e.cur = f.Proc.Entry()
		if e.Collector != nil {
			e.Collector.Block(program.NoBlock, e.cur)
		}
		e.advance()
		return
	}
	b := e.Img.Prog.Block(e.cur)
	if b.Kind != isa.TermCall {
		panic(fmt.Sprintf("codegen: Enter(%q) but model at %s block b%d of %s",
			fn, b.Kind, b.ID, e.frameName()))
	}
	// A fused image may have rewired the call to a per-kind clone; the clone
	// replays the original's events, so entering it under the original name
	// is the expected path.
	callee := e.Img.FnOf(b.Callee)
	if callee != f && callee.EventName() != fn {
		panic(fmt.Sprintf("codegen: Enter(%q) but model expects call to %q", fn, callee.Name))
	}
	e.enterCall(b, callee)
	e.advance()
}

// Leave implements the probe event: the engine returned from fn.
func (e *Emitter) Leave(fn string) {
	if e.unwinding {
		return
	}
	if len(e.stack) == 0 {
		panic(fmt.Sprintf("codegen: Leave(%q) with empty stack", fn))
	}
	top := e.stack[len(e.stack)-1]
	if top.name != fn {
		panic(fmt.Sprintf("codegen: Leave(%q) but current frame is %q", fn, top.name))
	}
	b := e.Img.Prog.Block(e.cur)
	if b.Kind != isa.TermRet {
		panic(fmt.Sprintf("codegen: Leave(%q) but model at %s block b%d (missing events?)",
			fn, b.Kind, b.ID))
	}
	e.popRet(b)
	e.advance()
}

// Branch implements the probe event for If and Loop sites.
func (e *Emitter) Branch(site string, taken bool) {
	if e.unwinding {
		return
	}
	b := e.curSiteBlock(site, isa.TermCond)
	if taken {
		e.transition(b, b.Fall)
	} else {
		e.transition(b, b.Taken)
	}
	e.advance()
}

// Case implements the probe event for Switch sites.
func (e *Emitter) Case(site string, k int) {
	if e.unwinding {
		return
	}
	b := e.curSiteBlock(site, isa.TermIndirect)
	if k < 0 || k >= len(b.Targets) {
		panic(fmt.Sprintf("codegen: Case(%q, %d) out of range (%d cases)", site, k, len(b.Targets)))
	}
	e.transition(b, b.Targets[k])
	e.advance()
}

// Data forwards a data reference to the machine hook.
func (e *Emitter) Data(addr uint64, bytes int, write bool) {
	if e.unwinding {
		return
	}
	if e.OnData != nil {
		e.OnData(addr, bytes, write)
	}
}

// Syscall forwards a kernel crossing to the machine hook.
func (e *Emitter) Syscall(name string) {
	if e.unwinding {
		return
	}
	if e.OnSyscall != nil {
		e.OnSyscall(name)
	}
}

// RunAuto executes an auto function to completion from idle (used for the
// kernel image, whose services have no engine instrumentation).
func (e *Emitter) RunAuto(fn string) {
	f, ok := e.Img.Fns[fn]
	if !ok {
		panic(fmt.Sprintf("codegen: RunAuto(%q): unknown function", fn))
	}
	if !f.Auto {
		panic(fmt.Sprintf("codegen: RunAuto(%q): not an auto function", fn))
	}
	if e.cur != program.NoBlock {
		panic(fmt.Sprintf("codegen: RunAuto(%q) while busy", fn))
	}
	e.stack = append(e.stack, eframe{name: fn, auto: true, callBlock: program.NoBlock, cont: program.NoBlock})
	e.prev = program.NoBlock
	e.cur = f.Proc.Entry()
	if e.Collector != nil {
		e.Collector.Block(program.NoBlock, e.cur)
	}
	e.advance()
	if e.cur != program.NoBlock || len(e.stack) != 0 {
		panic(fmt.Sprintf("codegen: RunAuto(%q) did not run to completion", fn))
	}
}

func (e *Emitter) curSiteBlock(site string, kind isa.TermKind) *program.Block {
	if e.cur == program.NoBlock {
		panic(fmt.Sprintf("codegen: event at site %q while idle", site))
	}
	b := e.Img.Prog.Block(e.cur)
	if b.Kind != kind || e.Img.Site[b.ID] != site {
		panic(fmt.Sprintf("codegen: event for site %q but model at %s block b%d (site %q) in %s",
			site, b.Kind, b.ID, e.Img.Site[b.ID], e.frameName()))
	}
	return b
}

func (e *Emitter) frameName() string {
	if len(e.stack) == 0 {
		return "<no frame>"
	}
	return e.stack[len(e.stack)-1].name
}
