package isa

import "fmt"

// Builder assembles a Program with symbolic labels. Methods append one
// instruction each and return the builder for chaining. Labels may be
// referenced before they are defined; Build resolves them and fails on
// dangling references.
type Builder struct {
	name   string
	code   []Instr
	labels map[string]int
	fixups []fixup
	regs   int
	err    error
}

type fixup struct {
	pc    int
	label string
}

// NewBuilder starts a program with the given kernel name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, labels: make(map[string]int)}
}

// PC returns the index the next emitted instruction will occupy.
func (b *Builder) PC() int { return len(b.code) }

// SetRegsPerThread declares the kernel's register footprint.
func (b *Builder) SetRegsPerThread(n int) *Builder {
	b.regs = n
	return b
}

// Label binds name to the next instruction's PC.
func (b *Builder) Label(name string) *Builder {
	if _, dup := b.labels[name]; dup {
		b.fail("duplicate label %q", name)
		return b
	}
	b.labels[name] = len(b.code)
	return b
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("isa builder %q: "+format, append([]any{b.name}, args...)...)
	}
}

func (b *Builder) emit(in Instr) *Builder {
	b.code = append(b.code, in)
	return b
}

// emitFixup appends in with its Target left for Build to resolve from
// label.
func (b *Builder) emitFixup(in Instr, label string) *Builder {
	b.fixups = append(b.fixups, fixup{pc: len(b.code), label: label})
	return b.emit(in)
}

// Raw appends a pre-constructed instruction verbatim.
func (b *Builder) Raw(in Instr) *Builder { return b.emit(in) }

// Nop appends a NOP.
func (b *Builder) Nop() *Builder { return b.emit(MakeInstr(NOP)) }

// Movi sets Rd to an immediate.
func (b *Builder) Movi(rd uint8, imm int32) *Builder {
	in := MakeInstr(MOVI)
	in.Dst, in.Imm = rd, imm
	return b.emit(in)
}

// Mov copies Ra to Rd.
func (b *Builder) Mov(rd, ra uint8) *Builder {
	in := MakeInstr(MOV)
	in.Dst, in.SrcA = rd, ra
	return b.emit(in)
}

// S2R reads a special register into Rd.
func (b *Builder) S2R(rd uint8, sr int) *Builder {
	in := MakeInstr(S2R)
	in.Dst, in.SrcA = rd, uint8(sr)
	return b.emit(in)
}

func (b *Builder) alu3(op Opcode, rd, ra, rb uint8) *Builder {
	in := MakeInstr(op)
	in.Dst, in.SrcA, in.SrcB = rd, ra, rb
	return b.emit(in)
}

func (b *Builder) aluImm(op Opcode, rd, ra uint8, imm int32) *Builder {
	in := MakeInstr(op)
	in.Dst, in.SrcA, in.Imm = rd, ra, imm
	return b.emit(in)
}

// Iadd emits Rd = Ra + Rb.
func (b *Builder) Iadd(rd, ra, rb uint8) *Builder { return b.alu3(IADD, rd, ra, rb) }

// Iaddi emits Rd = Ra + imm.
func (b *Builder) Iaddi(rd, ra uint8, imm int32) *Builder { return b.aluImm(IADDI, rd, ra, imm) }

// Imul emits Rd = Ra * Rb.
func (b *Builder) Imul(rd, ra, rb uint8) *Builder { return b.alu3(IMUL, rd, ra, rb) }

// Imuli emits Rd = Ra * imm.
func (b *Builder) Imuli(rd, ra uint8, imm int32) *Builder { return b.aluImm(IMULI, rd, ra, imm) }

// Iand emits Rd = Ra & Rb.
func (b *Builder) Iand(rd, ra, rb uint8) *Builder { return b.alu3(IAND, rd, ra, rb) }

// Ior emits Rd = Ra | Rb.
func (b *Builder) Ior(rd, ra, rb uint8) *Builder { return b.alu3(IOR, rd, ra, rb) }

// Ixor emits Rd = Ra ^ Rb.
func (b *Builder) Ixor(rd, ra, rb uint8) *Builder { return b.alu3(IXOR, rd, ra, rb) }

// Shl emits Rd = Ra << imm.
func (b *Builder) Shl(rd, ra uint8, imm int32) *Builder { return b.aluImm(SHL, rd, ra, imm) }

// Shr emits Rd = Ra >> imm.
func (b *Builder) Shr(rd, ra uint8, imm int32) *Builder { return b.aluImm(SHR, rd, ra, imm) }

// Fadd emits Rd = Ra +f Rb.
func (b *Builder) Fadd(rd, ra, rb uint8) *Builder { return b.alu3(FADD, rd, ra, rb) }

// Fmul emits Rd = Ra *f Rb.
func (b *Builder) Fmul(rd, ra, rb uint8) *Builder { return b.alu3(FMUL, rd, ra, rb) }

// Ffma emits Rd = Ra*Rb + Rc.
func (b *Builder) Ffma(rd, ra, rb, rc uint8) *Builder {
	in := MakeInstr(FFMA)
	in.Dst, in.SrcA, in.SrcB, in.SrcC = rd, ra, rb, rc
	return b.emit(in)
}

// Mufu emits a transcendental Rd = f(Ra).
func (b *Builder) Mufu(rd, ra uint8) *Builder {
	in := MakeInstr(MUFU)
	in.Dst, in.SrcA = rd, ra
	return b.emit(in)
}

// Isetp emits Pd = Ra cmp Rb.
func (b *Builder) Isetp(cmp CmpOp, pd, ra, rb uint8) *Builder {
	in := MakeInstr(ISETP)
	in.Cmp, in.Dst, in.SrcA, in.SrcB = cmp, pd, ra, rb
	return b.emit(in)
}

// Isetpi emits Pd = Ra cmp imm.
func (b *Builder) Isetpi(cmp CmpOp, pd, ra uint8, imm int32) *Builder {
	in := MakeInstr(ISETPI)
	in.Cmp, in.Dst, in.SrcA, in.Imm = cmp, pd, ra, imm
	return b.emit(in)
}

// Ldg emits a global load Rd = [Ra+imm] guarded by write-scoreboard sb.
func (b *Builder) Ldg(rd, ra uint8, imm int32, sb int) *Builder {
	in := MakeInstr(LDG)
	in.Dst, in.SrcA, in.Imm, in.WrScbd = rd, ra, imm, int8(sb)
	return b.emit(in)
}

// Stg emits a global store [Ra+imm] = Rb.
func (b *Builder) Stg(ra uint8, imm int32, rb uint8) *Builder {
	in := MakeInstr(STG)
	in.SrcA, in.Imm, in.SrcB = ra, imm, rb
	in.WrScbd = NoScoreboard
	return b.emit(in)
}

// Tld emits a texture load Rd = tex[Ra+imm] guarded by scoreboard sb.
func (b *Builder) Tld(rd, ra uint8, imm int32, sb int) *Builder {
	in := MakeInstr(TLD)
	in.Dst, in.SrcA, in.Imm, in.WrScbd = rd, ra, imm, int8(sb)
	return b.emit(in)
}

// Tex emits a texture fetch Rd = tex[Ra+Rb+imm] guarded by scoreboard sb.
func (b *Builder) Tex(rd, ra, rb uint8, imm int32, sb int) *Builder {
	in := MakeInstr(TEX)
	in.Dst, in.SrcA, in.SrcB, in.Imm, in.WrScbd = rd, ra, rb, imm, int8(sb)
	return b.emit(in)
}

// Trace emits an asynchronous TraceRay: Rd = trace(ray Ra), guarded by
// scoreboard sb.
func (b *Builder) Trace(rd, ra uint8, sb int) *Builder {
	in := MakeInstr(TRACE)
	in.Dst, in.SrcA, in.WrScbd = rd, ra, int8(sb)
	return b.emit(in)
}

// Req annotates the most recently emitted instruction with a consumer
// scoreboard requirement ("&req=sbN"), modeling the load-to-use wait.
func (b *Builder) Req(sb int) *Builder {
	if len(b.code) == 0 {
		b.fail("Req with no prior instruction")
		return b
	}
	b.code[len(b.code)-1].ReqScbd = int8(sb)
	return b
}

// Bra emits an unconditional branch to label.
func (b *Builder) Bra(label string) *Builder { return b.BraP(PT, false, label) }

// BraP emits a branch to label taken by threads whose predicate (or its
// negation) is true.
func (b *Builder) BraP(pred uint8, neg bool, label string) *Builder {
	in := MakeInstr(BRA)
	in.Pred, in.PredNeg = pred, neg
	return b.emitFixup(in, label)
}

// Brx emits an indirect branch through Ra.
func (b *Builder) Brx(ra uint8) *Builder {
	in := MakeInstr(BRX)
	in.SrcA = ra
	return b.emit(in)
}

// Bssy emits a convergence-barrier setup naming the reconvergence label.
func (b *Builder) Bssy(barrier uint8, label string) *Builder {
	in := MakeInstr(BSSY)
	in.Barrier = barrier
	return b.emitFixup(in, label)
}

// Bsync emits the convergence-barrier wait.
func (b *Builder) Bsync(barrier uint8) *Builder {
	in := MakeInstr(BSYNC)
	in.Barrier = barrier
	return b.emit(in)
}

// Yield emits a subwarp-yield scheduling hint.
func (b *Builder) Yield() *Builder { return b.emit(MakeInstr(YIELD)) }

// Exit emits thread termination.
func (b *Builder) Exit() *Builder { return b.emit(MakeInstr(EXIT)) }

// Build resolves labels, validates, and returns the program.
func (b *Builder) Build() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	for _, f := range b.fixups {
		target, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("isa builder %q: undefined label %q at pc %d", b.name, f.label, f.pc)
		}
		b.code[f.pc].Target = target
	}
	regs := b.regs
	if regs == 0 {
		regs = 32
	}
	p := &Program{Name: b.name, Code: b.code, RegsPerThread: regs}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build that panics on error, for tests and generators
// whose programs are statically known to be well-formed.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
