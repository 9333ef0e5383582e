package isa

// The compile pass lowers a Program once into a pre-decoded operation
// stream the simulator can replay without per-cycle decoding: opcodes
// are resolved to dense ExecClass indices (the SM's compiled dispatch
// switches on them), operands are widened to the exact types the
// execution arms consume (zero-extended address immediates, masked
// shift amounts), and a basic-block map records the static structure
// fast-forward relies on. The pass is pure analysis: it
// never changes architectural semantics, and the simulator's compiled
// mode is required (and tested) to be bit-identical to the
// interpreter.

// ExecClass is the SM's compiled-dispatch key. Every opcode maps to
// exactly one class; the three texture/global load flavors share
// ExecLOAD because the SM's load path dispatches on the original
// opcode it keeps in COp.Op.
type ExecClass uint8

const (
	ExecNOP ExecClass = iota
	ExecMOVI
	ExecMOV
	ExecS2R
	ExecIADD
	ExecIADDI
	ExecIMUL
	ExecIMULI
	ExecIAND
	ExecIOR
	ExecIXOR
	ExecSHL
	ExecSHR
	ExecISETP
	ExecISETPI
	ExecFADD
	ExecFMUL
	ExecFFMA
	ExecMUFU
	ExecLOAD // LDG, TLD, TEX
	ExecSTG
	ExecTRACE
	ExecBRA
	ExecBRX
	ExecBSSY
	ExecBSYNC
	ExecYIELD
	ExecEXIT

	NumExecClasses // sentinel
)

// ExecClassOf returns the dispatch class for an opcode.
func ExecClassOf(op Opcode) ExecClass { return opTable[op].exec }

// COp is one pre-decoded operation. It carries everything the
// execution arms read, already widened/masked so the per-cycle path
// does no conversions, plus the original opcode for trace emission and
// the load path.
type COp struct {
	Exec ExecClass
	Op   Opcode // original opcode (trace events, LDG/TLD/TEX flavor)

	Dst     uint8
	SrcA    uint8
	SrcB    uint8
	SrcC    uint8
	Pred    uint8
	PredNeg bool
	Barrier uint8
	Cmp     CmpOp

	WrScbd  int8
	ReqScbd int8

	Imm    int32
	Target int32
	UImm   uint64 // uint64(uint32(Imm)): zero-extended address offset
	Sh     uint32 // uint32(Imm) & 31: pre-masked shift amount
}

// BasicBlock is a maximal straight-line region [Start, End). Leaders
// are the program entry, branch/reconvergence targets, and the
// instructions following control transfers. BRX targets are runtime
// register values and cannot be enumerated statically, so an indirect
// branch may legally enter a block mid-region; the per-PC FFLen
// arrays (not the block map) are what execution consults, and they are
// valid from any entry point.
type BasicBlock struct {
	Start, End int

	// Convergent: no interior instruction (everything before End-1) can
	// splinter, block, yield, or retire the active subwarp — the region
	// is free of BRA/BRX/BSYNC/EXIT/YIELD until its terminator.
	Convergent bool
	// NoMemory: the block contains no LDG/STG/TLD/TEX/TRACE anywhere,
	// so executing it cannot schedule writebacks or touch memory.
	NoMemory bool
	// NoScoreboard: no instruction in the block writes (&wr) or waits
	// on (&req) a scoreboard, so issue can never stall mid-block.
	NoScoreboard bool
	// NoBranchUntilEnd: interior instructions are free of BRA/BRX/
	// BSYNC/EXIT (YIELD permitted), so the PC advances linearly until
	// the terminator.
	NoBranchUntilEnd bool
}

// Compiled is the pre-decoded form of a Program.
type Compiled struct {
	Ops    []COp
	Blocks []BasicBlock
	// BlockOf maps each PC to its index in Blocks.
	BlockOf []int32

	// FFLen[pc] is the number of consecutive fast-forward-simple
	// operations starting at pc: fixed-latency ALU ops (and BSSY) with
	// no scoreboard annotations — operations whose only effects are
	// register/predicate/barrier writes and PC advance, so a scheduler
	// that keeps issuing them emits no events and changes no state any
	// other warp can observe. YIELD ends a run because under
	// SI.Enabled && SI.Yield it may switch the active subwarp.
	FFLen []int32
	// FFLenYieldInert is FFLen computed with YIELD counted as simple,
	// valid for configurations where YIELD is architecturally inert
	// (SI disabled, or SI without the yield hint).
	FFLenYieldInert []int32
}

func compile(p *Program) *Compiled {
	n := len(p.Code)
	c := &Compiled{
		Ops:             make([]COp, n),
		BlockOf:         make([]int32, n),
		FFLen:           make([]int32, n),
		FFLenYieldInert: make([]int32, n),
	}

	for pc, in := range p.Code {
		c.Ops[pc] = COp{
			Exec:    opTable[in.Op].exec,
			Op:      in.Op,
			Dst:     in.Dst,
			SrcA:    in.SrcA,
			SrcB:    in.SrcB,
			SrcC:    in.SrcC,
			Pred:    in.Pred,
			PredNeg: in.PredNeg,
			Barrier: in.Barrier,
			Cmp:     in.Cmp,
			WrScbd:  in.WrScbd,
			ReqScbd: in.ReqScbd,
			Imm:     in.Imm,
			Target:  int32(in.Target),
			UImm:    uint64(uint32(in.Imm)),
			Sh:      uint32(in.Imm) & 31,
		}
	}

	// Run lengths, computed backwards so each PC extends its successor.
	// A scoreboard wait can stall issue, so it ends a run.
	for pc := n - 1; pc >= 0; pc-- {
		in := p.Code[pc]
		simple := in.ReqScbd == NoScoreboard && in.Op.has(ffSimple)
		if simple {
			c.FFLen[pc] = 1
			if pc+1 < n {
				c.FFLen[pc] += c.FFLen[pc+1]
			}
		}
		if simple || (in.ReqScbd == NoScoreboard && in.Op == YIELD) {
			c.FFLenYieldInert[pc] = 1
			if pc+1 < n {
				c.FFLenYieldInert[pc] += c.FFLenYieldInert[pc+1]
			}
		}
	}

	// Basic blocks: leaders are the entry, statically known targets
	// (BRA, and BSSY reconvergence points), and fall-throughs after
	// control transfers.
	leader := make([]bool, n)
	if n > 0 {
		leader[0] = true
	}
	for pc, in := range p.Code {
		if in.Op.takes(oTarget) && in.Target >= 0 && in.Target < n {
			leader[in.Target] = true
		}
		if in.Op.has(branch) && pc+1 < n {
			leader[pc+1] = true
		}
	}
	for start := 0; start < n; {
		end := start + 1
		for end < n && !leader[end] {
			end++
		}
		bb := BasicBlock{
			Start:            start,
			End:              end,
			Convergent:       true,
			NoMemory:         true,
			NoScoreboard:     true,
			NoBranchUntilEnd: true,
		}
		for pc := start; pc < end; pc++ {
			in := p.Code[pc]
			interior := pc < end-1
			if interior && in.Op.has(branch) {
				bb.NoBranchUntilEnd = false
				bb.Convergent = false
			}
			if interior && in.Op == YIELD {
				bb.Convergent = false
			}
			if in.Op.has(memory) {
				bb.NoMemory = false
			}
			if in.WrScbd != NoScoreboard || in.ReqScbd != NoScoreboard {
				bb.NoScoreboard = false
			}
		}
		idx := int32(len(c.Blocks))
		c.Blocks = append(c.Blocks, bb)
		for pc := start; pc < end; pc++ {
			c.BlockOf[pc] = idx
		}
		start = end
	}

	return c
}
