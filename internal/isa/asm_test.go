package isa

import (
	"math"
	"strings"
	"testing"
)

func TestAssembleSimple(t *testing.T) {
	src := `
		// a trivial kernel
		.regs 40
		S2R R0, SR0
		MOVI R1, 128
		IADD R2, R0, R1
		EXIT
	`
	p, err := Assemble("simple", src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 4 {
		t.Fatalf("Len = %d, want 4", p.Len())
	}
	if p.RegsPerThread != 40 {
		t.Errorf("RegsPerThread = %d, want 40", p.RegsPerThread)
	}
	if p.Code[1].Op != MOVI || p.Code[1].Imm != 128 {
		t.Errorf("instr 1 = %v", p.Code[1])
	}
	if p.Code[2].Op != IADD {
		t.Errorf("instr 2 = %v", p.Code[2])
	}
}

func TestAssembleFig9(t *testing.T) {
	// The paper's Fig. 9 kernel, nearly verbatim.
	src := `
		S2R R0, SR0
		ISETP.EQ P0, R0, 0
		BSSY B0, syncPoint
		@P0 BRA Else
		TLD R2, [R0+4096] &wr=sb5
		FMUL R10, R5, R6
		FMUL R2, R2, R10 &req=sb5
		BRA syncPoint
	Else:
		TEX R1, [R8+R9+0] &wr=sb2
		FADD R1, R1, R3 &req=sb2
		BRA syncPoint
	syncPoint:
		BSYNC B0
		EXIT
	`
	p, err := Assemble("fig9", src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 13 {
		t.Fatalf("Len = %d, want 13", p.Len())
	}
	// BSSY reconverges at the BSYNC.
	if p.Code[2].Op != BSSY || p.Code[2].Target != 11 {
		t.Errorf("BSSY = %v", p.Code[2])
	}
	// Predicated branch to Else.
	bra := p.Code[3]
	if bra.Op != BRA || bra.Pred != 0 || bra.PredNeg || bra.Target != 8 {
		t.Errorf("BRA = %v", bra)
	}
	if p.Code[4].WrScbd != 5 || p.Code[6].ReqScbd != 5 {
		t.Error("sb5 annotations lost")
	}
	if p.Code[8].Op != TEX || p.Code[8].WrScbd != 2 {
		t.Errorf("TEX = %v", p.Code[8])
	}
}

func TestAssembleOperandForms(t *testing.T) {
	src := `
		MOVI R1, 0x10
		IADD R2, R1, 5
		IMUL R3, R2, R1
		IMUL R3, R3, -7
		SHL R4, R3, 2
		SHR R4, R4, 1
		IAND R5, R4, R1
		IOR R5, R5, R2
		IXOR R5, R5, R3
		FFMA R6, R5, R4, R3
		MUFU R7, R6
		MOV R8, R7
		ISETP.GE P1, R8, R1
		ISETP.NE P2, R8, 99
		LDG R9, [R1+256] &wr=sb1
		TLD R10, [R1+0] &wr=sb2
		STG [R1+4], R9
		TRACE R11, R1 &wr=sb3
		MOVI R12, 0xFFFFFFFF
		BRX R4
	`
	p, err := Assemble("forms", src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[0].Imm != 16 {
		t.Errorf("hex immediate = %d", p.Code[0].Imm)
	}
	if p.Code[1].Op != IADDI {
		t.Error("IADD with immediate should become IADDI")
	}
	if p.Code[2].Op != IMUL || p.Code[3].Op != IMULI || p.Code[3].Imm != -7 {
		t.Error("IMUL forms wrong")
	}
	if p.Code[12].Op != ISETP || p.Code[13].Op != ISETPI {
		t.Error("ISETP forms wrong")
	}
	if p.Code[18].Imm != -1 {
		t.Errorf("0xFFFFFFFF immediate = %d, want the -1 bit pattern", p.Code[19].Imm)
	}
}

func TestAssembleNumericTargets(t *testing.T) {
	src := `
		NOP
		BRA 3
		NOP
		EXIT
	`
	p, err := Assemble("numeric", src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[1].Target != 3 {
		t.Errorf("numeric target = %d", p.Code[1].Target)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"unknown mnemonic", "FROB R1, R2\nEXIT"},
		{"bad register", "MOVI R99, 1\nEXIT"},
		{"bad predicate", "@P9 BRA x\nx:\nEXIT"},
		{"wrong operand count", "IADD R1, R2\nEXIT"},
		{"undefined label", "BRA nowhere\nEXIT"},
		{"bad immediate", "MOVI R1, banana\nEXIT"},
		{"bad address", "LDG R1, R2 &wr=sb0\nEXIT"},
		{"wr on math", "IADD R1, R2, R3 &wr=sb0\nEXIT"},
		{"bad regs directive", ".regs zero\nEXIT"},
		{"bad cmp", "ISETP.XX P0, R1, R2\nEXIT"},
		{"tex without rb", "TEX R1, [R2+0] &wr=sb0\nEXIT"},
		{"guard on non-branch", "@P0 MOVI R1, 2\nEXIT"},
		{"scoreboard range", "LDG R1, [R2+0] &wr=sb99\nEXIT"},
		{"stg two regs", "STG [R1+R2+0], R3\nEXIT"},
		{"immediate above 32 bits", "MOVI R1, 4294967296\nEXIT"},
		{"immediate below 32 bits", "IADD R1, R1, -2147483649\nEXIT"},
		{"address immediate above 32 bits", "LDG R2, [R1+4294967300] &wr=sb0\nEXIT"},
		{"isetpi mnemonic", "ISETPI.GT P1, R1, 0\nEXIT"},
		{"guard on bssy", "@P0 BSSY B0, x\nx:\nBSYNC B0\nEXIT"},
	}
	for _, c := range cases {
		if _, err := Assemble("bad", c.src); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestAssembleNegatedPredicate(t *testing.T) {
	src := `
		ISETP.LT P0, R0, 16
		@!P0 BRA done
		NOP
	done:
		EXIT
	`
	p, err := Assemble("neg", src)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Code[1].PredNeg || p.Code[1].Pred != 0 {
		t.Errorf("negated guard = %v", p.Code[1])
	}
}

// Round-trip property: reassembling a program's disassembly reproduces
// it exactly. Exercised on hand-built and generator-scale programs.
func TestAssembleDisassembleRoundTrip(t *testing.T) {
	progs := []*Program{}

	b := NewBuilder("hand")
	b.S2R(0, SRLaneID)
	b.Shl(1, 0, 7)
	b.Isetpi(CmpLT, 0, 0, 16)
	b.Bssy(0, "sync")
	b.BraP(0, true, "then")
	b.Ldg(3, 1, 64, 1)
	b.Iadd(3, 3, 3).Req(1)
	b.Bra("sync")
	b.Label("then")
	b.Tex(4, 1, 2, 8, 2)
	b.Fadd(4, 4, 3).Req(2)
	b.Bra("sync")
	b.Label("sync")
	b.Bsync(0)
	b.Trace(5, 1, 3)
	b.Mufu(6, 5).Req(3)
	b.Stg(1, 0, 6)
	b.Yield()
	progs = append(progs, b.Exit().MustBuild())

	// Every opcode-table row, in each operand slot's boundary values.
	type bounds struct {
		r1, r2, pd, sr, bar uint8
		imm                 int32
		target              int
		cmp                 CmpOp
		pred                uint8
		neg                 bool
		wr, req             int8
	}
	for _, v := range []bounds{
		{0, NumRegs - 1, 0, SRLaneID, 0, math.MinInt32, 0, CmpEQ, PT, false, 0, NoScoreboard},
		{NumRegs - 1, 0, PT - 1, SRThreadID, NumBarriers - 1, math.MaxInt32, 1, CmpGE, 0, false, NumBarriers - 1, NumBarriers - 1},
		{NumRegs - 1, 0, PT - 1, SRThreadID, NumBarriers - 1, -1, 1, CmpNE, PT - 1, true, 1, 0},
	} {
		for op := Opcode(0); op < numOpcodes; op++ {
			in := MakeInstr(op)
			for _, o := range op.operands() {
				switch o {
				case oRd:
					in.Dst = v.r1
				case oPd:
					in.Dst, in.Cmp = v.pd, v.cmp
				case oRa, oMem:
					in.SrcA = v.r2
				case oRb:
					in.SrcB = v.r1
				case oRc:
					in.SrcC = v.r2
				case oMemRb:
					in.SrcA, in.SrcB = v.r2, v.r1
				case oSR:
					in.SrcA = v.sr
				case oBar:
					in.Barrier = v.bar
				case oTarget:
					in.Target = v.target
				}
				if o == oImm || o == oMem || o == oMemRb {
					in.Imm = v.imm
				}
			}
			if op.has(guarded) {
				in.Pred, in.PredNeg = v.pred, v.neg
			}
			if op.IsLongLatency() {
				in.WrScbd = v.wr
			}
			in.ReqScbd = v.req
			p, err := Assemble(in.String(), in.String()+"\nEXIT\n")
			if err != nil {
				t.Errorf("%s: %v", in, err)
			} else if p.Code[0] != in {
				t.Errorf("%s: reassembled %+v, want %+v", in, p.Code[0], in)
			}
		}
	}

	for _, p := range progs {
		again, err := Assemble(p.Name, p.Disassemble())
		if err != nil {
			t.Fatalf("%s: reassembly failed: %v", p.Name, err)
		}
		if again.Len() != p.Len() {
			t.Fatalf("%s: length %d != %d", p.Name, again.Len(), p.Len())
		}
		for pc := range p.Code {
			want := p.Code[pc]
			got := again.Code[pc]
			if got != want {
				t.Fatalf("%s: pc %d: %v != %v", p.Name, pc, got, want)
			}
		}
	}
}

func TestAssembleIgnoresComments(t *testing.T) {
	src := `
		# hash comment
		NOP // trailing
		EXIT
	`
	p, err := Assemble("c", src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 {
		t.Fatalf("Len = %d", p.Len())
	}
}

func TestAssembleDisasmHeaderTolerated(t *testing.T) {
	// Disassemble emits a "// name" header line and "PC:" prefixes;
	// both must parse.
	src := "// kernel (3 instrs)\n   0: NOP\n   1: NOP\n   2: EXIT\n"
	p, err := Assemble("hdr", src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 3 {
		t.Fatalf("Len = %d", p.Len())
	}
	if !strings.Contains(p.Disassemble(), "EXIT") {
		t.Error("disassembly lost EXIT")
	}
}
