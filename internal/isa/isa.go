// Package isa defines the SASS-like instruction set executed by the
// simulated SM.
//
// The ISA mirrors the subset of NVIDIA SASS the paper's mechanism
// interacts with: fixed-latency math, variable-latency memory and
// texture operations guarded by count-based scoreboards (the "&wr=sbN"
// / "&req=sbN" annotations of Fig. 9), convergence-barrier control flow
// (BSSY/BSYNC), direct and indirect branches, an asynchronous TraceRay
// operation serviced by the RT core, and an optional subwarp-yield
// scheduling hint.
//
// Programs execute functionally: threads carry 32-bit registers and
// predicate registers, loads compute real addresses, and branches
// resolve from computed predicates, making the simulator
// execution-driven like the proprietary simulator in the paper.
package isa

import (
	"fmt"
	"strconv"
)

// Architectural limits.
const (
	// NumRegs is the number of 32-bit general-purpose registers
	// addressable per thread.
	NumRegs = 64
	// NumPreds is the number of predicate registers per thread. The
	// highest predicate (PT) reads as constant true.
	NumPreds = 8
	// PT is the always-true predicate register index.
	PT = NumPreds - 1
	// NumBarriers is the number of convergence barrier registers per
	// warp (B0..B15).
	NumBarriers = 16
)

// Opcode enumerates the instruction set.
type Opcode uint8

const (
	NOP Opcode = iota

	// Fixed-latency integer/float ALU operations.
	MOVI   // Rd = Imm
	MOV    // Rd = Ra
	S2R    // Rd = special register (SrcA selects which)
	IADD   // Rd = Ra + Rb
	IADDI  // Rd = Ra + Imm
	IMUL   // Rd = Ra * Rb
	IMULI  // Rd = Ra * Imm
	IAND   // Rd = Ra & Rb
	IOR    // Rd = Ra | Rb
	IXOR   // Rd = Ra ^ Rb
	SHL    // Rd = Ra << (Imm & 31)
	SHR    // Rd = Ra >> (Imm & 31)
	ISETP  // Pd = Ra <Cmp> Rb
	ISETPI // Pd = Ra <Cmp> Imm
	FADD   // Rd = Ra +f Rb
	FMUL   // Rd = Ra *f Rb
	FFMA   // Rd = Ra *f Rb +f Rc
	MUFU   // Rd = transcendental(Ra); shared functional unit, longer pipeline

	// Variable-latency operations tracked by count-based scoreboards.
	LDG   // Rd = global[Ra + Imm]           (LSU path)
	STG   // global[Ra + Imm] = Rb           (LSU path, no consumer stall)
	TLD   // Rd = texture[Ra + Imm]          (TEX path)
	TEX   // Rd = texture[Ra + Rb + Imm]     (TEX path)
	TRACE // Rd = RTCore.TraceRay(ray Ra)    (RT core, returns hit record)

	// Control flow.
	BRA   // if pred: PC = Target
	BRX   // PC = Ra (per-thread indirect branch, e.g. shader dispatch)
	BSSY  // register active threads in barrier B, reconvergence at Target
	BSYNC // wait at barrier B until all participants arrive, then converge

	// Scheduling.
	YIELD // subwarp-yield hint (no architectural effect)
	EXIT  // thread terminates

	numOpcodes // sentinel
)

// operand is one slot of an instruction's assembly syntax: which Instr
// field it names and how it is written.
type operand uint8

const (
	oRd     operand = iota // destination GPR "R%d" (Dst)
	oPd                    // destination predicate "P%d" (Dst), never PT
	oRa                    // source GPR (SrcA)
	oRb                    // source GPR (SrcB)
	oRc                    // source GPR (SrcC)
	oSR                    // special-register selector "SR%d" (SrcA)
	oImm                   // immediate (Imm)
	oMem                   // address "[R%d+%d]" (SrcA, Imm)
	oMemRb                 // address "[R%d+R%d+%d]" (SrcA, SrcB, Imm)
	oBar                   // convergence barrier "B%d" (Barrier)
	oTarget                // instruction index or label (Target)
)

// format is an opcode's operand list, named by its slots in assembly
// order. Formats with a predicate destination are comparisons and carry
// a ".cmp" mnemonic suffix.
type format uint8

const (
	fNone format = iota
	fRdImm
	fRdRa
	fRdSR
	fRdRaRb
	fRdRaImm
	fRdRaRbRc
	fPdRaRb
	fPdRaImm
	fRdMem
	fRdMemRb
	fMemRb
	fRa
	fTarget
	fBar
	fBarTarget
)

var formatOperands = [...][]operand{
	fNone:      nil,
	fRdImm:     {oRd, oImm},
	fRdRa:      {oRd, oRa},
	fRdSR:      {oRd, oSR},
	fRdRaRb:    {oRd, oRa, oRb},
	fRdRaImm:   {oRd, oRa, oImm},
	fRdRaRbRc:  {oRd, oRa, oRb, oRc},
	fPdRaRb:    {oPd, oRa, oRb},
	fPdRaImm:   {oPd, oRa, oImm},
	fRdMem:     {oRd, oMem},
	fRdMemRb:   {oRd, oMemRb},
	fMemRb:     {oMem, oRb},
	fRa:        {oRa},
	fTarget:    {oTarget},
	fBar:       {oBar},
	fBarTarget: {oBar, oTarget},
}

// opFlags are the per-opcode facts the simulator, the compile pass and
// the validators branch on.
type opFlags uint8

const (
	// longLatency: variable latency, guarded by a count-based
	// scoreboard ("&wr=sbN").
	longLatency opFlags = 1 << iota
	// texPath: writeback arrives on the texture-unit port (one of the
	// two writeback broadcast ports in Fig. 8b).
	texPath
	// ffSimple: without a scoreboard wait, execution writes only
	// thread-private registers/predicates (or a convergence-barrier
	// register, for BSSY), cannot stall at issue, and emits no events
	// (see Compiled.FFLen).
	ffSimple
	// branch: transfers or terminates control flow, so it ends a basic
	// block and breaks a block's convergent interior.
	branch
	// guarded: takes a "@P"/"@!P" predicate guard.
	guarded
	// memory: touches memory or the RT core (BasicBlock.NoMemory).
	memory
)

// opInfo is one row of the opcode table.
type opInfo struct {
	name string // mnemonic, as Opcode.String reports it
	// asm, when set, is the assembly spelling shared with the register
	// form; such an opcode is reached only through that form's imm.
	asm    string
	format format
	exec   ExecClass
	// imm is the immediate-form sibling the assembler picks when the
	// last operand is not a register (NOP: none).
	imm   Opcode
	flags opFlags
}

// opTable is the single source of per-opcode facts: the assembler,
// the disassembler, Program.Validate, the compile pass and admission
// all read it.
var opTable = [numOpcodes]opInfo{
	NOP:    {name: "NOP", exec: ExecNOP, flags: ffSimple},
	MOVI:   {name: "MOVI", format: fRdImm, exec: ExecMOVI, flags: ffSimple},
	MOV:    {name: "MOV", format: fRdRa, exec: ExecMOV, flags: ffSimple},
	S2R:    {name: "S2R", format: fRdSR, exec: ExecS2R, flags: ffSimple},
	IADD:   {name: "IADD", format: fRdRaRb, exec: ExecIADD, imm: IADDI, flags: ffSimple},
	IADDI:  {name: "IADDI", format: fRdRaImm, exec: ExecIADDI, flags: ffSimple},
	IMUL:   {name: "IMUL", format: fRdRaRb, exec: ExecIMUL, imm: IMULI, flags: ffSimple},
	IMULI:  {name: "IMULI", format: fRdRaImm, exec: ExecIMULI, flags: ffSimple},
	IAND:   {name: "IAND", format: fRdRaRb, exec: ExecIAND, flags: ffSimple},
	IOR:    {name: "IOR", format: fRdRaRb, exec: ExecIOR, flags: ffSimple},
	IXOR:   {name: "IXOR", format: fRdRaRb, exec: ExecIXOR, flags: ffSimple},
	SHL:    {name: "SHL", format: fRdRaImm, exec: ExecSHL, flags: ffSimple},
	SHR:    {name: "SHR", format: fRdRaImm, exec: ExecSHR, flags: ffSimple},
	ISETP:  {name: "ISETP", format: fPdRaRb, exec: ExecISETP, imm: ISETPI, flags: ffSimple},
	ISETPI: {name: "ISETPI", asm: "ISETP", format: fPdRaImm, exec: ExecISETPI, flags: ffSimple},
	FADD:   {name: "FADD", format: fRdRaRb, exec: ExecFADD, flags: ffSimple},
	FMUL:   {name: "FMUL", format: fRdRaRb, exec: ExecFMUL, flags: ffSimple},
	FFMA:   {name: "FFMA", format: fRdRaRbRc, exec: ExecFFMA, flags: ffSimple},
	MUFU:   {name: "MUFU", format: fRdRa, exec: ExecMUFU, flags: ffSimple},
	LDG:    {name: "LDG", format: fRdMem, exec: ExecLOAD, flags: longLatency | memory},
	STG:    {name: "STG", format: fMemRb, exec: ExecSTG, flags: memory},
	TLD:    {name: "TLD", format: fRdMem, exec: ExecLOAD, flags: longLatency | texPath | memory},
	TEX:    {name: "TEX", format: fRdMemRb, exec: ExecLOAD, flags: longLatency | texPath | memory},
	TRACE:  {name: "TRACE", format: fRdRa, exec: ExecTRACE, flags: longLatency | memory},
	BRA:    {name: "BRA", format: fTarget, exec: ExecBRA, flags: branch | guarded},
	BRX:    {name: "BRX", format: fRa, exec: ExecBRX, flags: branch},
	BSSY:   {name: "BSSY", format: fBarTarget, exec: ExecBSSY, flags: ffSimple},
	BSYNC:  {name: "BSYNC", format: fBar, exec: ExecBSYNC, flags: branch},
	YIELD:  {name: "YIELD", exec: ExecYIELD},
	EXIT:   {name: "EXIT", exec: ExecEXIT, flags: branch},
}

// operands returns the opcode's operand slots in assembly order.
func (o Opcode) operands() []operand { return formatOperands[opTable[o].format] }

// takes reports whether the opcode has an operand slot of kind k.
func (o Opcode) takes(k operand) bool {
	for _, s := range o.operands() {
		if s == k {
			return true
		}
	}
	return false
}

// has reports whether the opcode is defined and carries flag f.
func (o Opcode) has(f opFlags) bool { return o.Valid() && opTable[o].flags&f != 0 }

// String returns the mnemonic.
func (o Opcode) String() string {
	if o.Valid() {
		return opTable[o].name
	}
	return fmt.Sprintf("Opcode(%d)", uint8(o))
}

// Valid reports whether the opcode is a defined instruction.
func (o Opcode) Valid() bool { return o < numOpcodes }

// IsLongLatency reports whether the opcode is a variable-latency
// operation that must be guarded by a count-based scoreboard.
func (o Opcode) IsLongLatency() bool { return o.has(longLatency) }

// IsTexPath reports whether writeback arrives on the texture-unit port
// (one of the two writeback broadcast ports in Fig. 8b).
func (o Opcode) IsTexPath() bool { return o.has(texPath) }

// WritesReg reports whether the instruction writes a destination GPR.
func (o Opcode) WritesReg() bool { return o.Valid() && o.takes(oRd) }

// CmpOp is a comparison operator for ISETP/ISETPI.
type CmpOp uint8

const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

func (c CmpOp) String() string {
	switch c {
	case CmpEQ:
		return "EQ"
	case CmpNE:
		return "NE"
	case CmpLT:
		return "LT"
	case CmpLE:
		return "LE"
	case CmpGT:
		return "GT"
	case CmpGE:
		return "GE"
	default:
		return fmt.Sprintf("CmpOp(%d)", uint8(c))
	}
}

// Eval applies the comparison to signed 32-bit operands.
func (c CmpOp) Eval(a, b int32) bool {
	switch c {
	case CmpEQ:
		return a == b
	case CmpNE:
		return a != b
	case CmpLT:
		return a < b
	case CmpLE:
		return a <= b
	case CmpGT:
		return a > b
	case CmpGE:
		return a >= b
	default:
		return false
	}
}

// Special register selectors for S2R.
const (
	SRLaneID   = 0 // thread index within the warp
	SRWarpID   = 1 // warp index within the CTA
	SRCTAID    = 2 // CTA index within the grid
	SRThreadID = 3 // global thread id: ctaID*ctaSize + warpID*32 + lane
)

// NoScoreboard marks the absence of a scoreboard annotation.
const NoScoreboard = -1

// Instr is one decoded instruction. The zero value is a NOP with no
// scoreboard annotations (WrScbd/ReqScbd must be NoScoreboard; use
// MakeInstr or the Builder which initialize them).
type Instr struct {
	Op   Opcode
	Dst  uint8 // destination GPR, or predicate index for ISETP*
	SrcA uint8
	SrcB uint8
	SrcC uint8
	Cmp  CmpOp
	Imm  int32

	// Pred guards execution of BRA: the branch is taken by threads
	// whose predicate Pred (negated if PredNeg) is true.
	Pred    uint8
	PredNeg bool

	// Target is the resolved instruction index for BRA and the
	// reconvergence point for BSSY.
	Target int

	// Barrier is the convergence barrier register index for BSSY/BSYNC.
	Barrier uint8

	// WrScbd, when not NoScoreboard, names the count-based scoreboard
	// incremented at issue and decremented at writeback ("&wr=sbN").
	WrScbd int8
	// ReqScbd, when not NoScoreboard, names the scoreboard that must
	// read zero before this instruction can issue ("&req=sbN").
	ReqScbd int8
}

// MakeInstr returns an Instr of the given opcode with scoreboard
// annotations cleared.
func MakeInstr(op Opcode) Instr {
	return Instr{Op: op, WrScbd: NoScoreboard, ReqScbd: NoScoreboard}
}

// String disassembles the instruction in the syntax Assemble reads.
func (in Instr) String() string { return string(in.appendAsm(make([]byte, 0, 32))) }

// GPRs returns the general-purpose registers the instruction names, in
// operand order; only regs[:n] are meaningful. S2R's special-register
// selector is not a GPR.
func (in Instr) GPRs() (regs [4]uint8, n int) {
	if !in.Op.Valid() {
		return regs, 0
	}
	for _, o := range in.Op.operands() {
		switch o {
		case oRd:
			regs[n], n = in.Dst, n+1
		case oRa, oMem:
			regs[n], n = in.SrcA, n+1
		case oRb:
			regs[n], n = in.SrcB, n+1
		case oRc:
			regs[n], n = in.SrcC, n+1
		case oMemRb:
			regs[n], regs[n+1], n = in.SrcA, in.SrcB, n+2
		}
	}
	return regs, n
}

func (in Instr) appendAsm(b []byte) []byte {
	if !in.Op.Valid() {
		b = append(b, in.Op.String()...)
	} else {
		info := &opTable[in.Op]
		if info.flags&guarded != 0 && (in.Pred != PT || in.PredNeg) {
			b = append(b, '@')
			if in.PredNeg {
				b = append(b, '!')
			}
			b = appendReg(b, "P", in.Pred)
			b = append(b, ' ')
		}
		if info.asm != "" {
			b = append(b, info.asm...)
		} else {
			b = append(b, info.name...)
		}
		if in.Op.takes(oPd) {
			b = append(b, '.')
			b = append(b, in.Cmp.String()...)
		}
		for i, o := range formatOperands[info.format] {
			if i == 0 {
				b = append(b, ' ')
			} else {
				b = append(b, ", "...)
			}
			b = in.appendOperand(b, o)
		}
	}
	if in.WrScbd != NoScoreboard {
		b = append(b, " &wr=sb"...)
		b = strconv.AppendInt(b, int64(in.WrScbd), 10)
	}
	if in.ReqScbd != NoScoreboard {
		b = append(b, " &req=sb"...)
		b = strconv.AppendInt(b, int64(in.ReqScbd), 10)
	}
	return b
}

func (in Instr) appendOperand(b []byte, o operand) []byte {
	switch o {
	case oRd:
		return appendReg(b, "R", in.Dst)
	case oPd:
		return appendReg(b, "P", in.Dst)
	case oRa:
		return appendReg(b, "R", in.SrcA)
	case oRb:
		return appendReg(b, "R", in.SrcB)
	case oRc:
		return appendReg(b, "R", in.SrcC)
	case oSR:
		return appendReg(b, "SR", in.SrcA)
	case oImm:
		return strconv.AppendInt(b, int64(in.Imm), 10)
	case oMem, oMemRb:
		b = appendReg(append(b, '['), "R", in.SrcA)
		if o == oMemRb {
			b = appendReg(append(b, '+'), "R", in.SrcB)
		}
		b = strconv.AppendInt(append(b, '+'), int64(in.Imm), 10)
		return append(b, ']')
	case oBar:
		return appendReg(b, "B", in.Barrier)
	default: // oTarget
		return strconv.AppendInt(b, int64(in.Target), 10)
	}
}

func appendReg(b []byte, prefix string, n uint8) []byte {
	return strconv.AppendUint(append(b, prefix...), uint64(n), 10)
}
