package isa

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Assemble parses textual assembly into a Program. The syntax is the
// disassembler's output plus labels and directives, so
// Assemble(name, p.Disassemble()) round-trips any program:
//
//	.regs 40            // declared register footprint
//	start:
//	    S2R R0, SR0     // special register read
//	    MOVI R1, 128
//	    SHL R1, R0, 7
//	    LDG R2, [R1+0] &wr=sb0
//	    IADD R3, R2, R2 &req=sb0
//	    ISETP.LT P0, R0, 16
//	    BSSY B0, join
//	    @P0 BRA start   // predicated branch (also @!P0)
//	join:
//	    BSYNC B0
//	    EXIT
//
// Branch and BSSY targets may be labels or absolute instruction
// indices. Comments run from "//" or "#" to end of line.
func Assemble(name, src string) (*Program, error) {
	b := NewBuilder(name)
	for num, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		if line == "" {
			continue
		}
		if err := asmLine(b, line); err != nil {
			return nil, fmt.Errorf("isa: line %d: %w (%q)", num+1, err, strings.TrimSpace(raw))
		}
	}
	return b.Build()
}

func stripComment(line string) string {
	if i := strings.Index(line, "//"); i >= 0 {
		line = line[:i]
	}
	if i := strings.Index(line, "#"); i >= 0 {
		line = line[:i]
	}
	return strings.TrimSpace(line)
}

// asmLine assembles one non-empty line.
func asmLine(b *Builder, line string) error {
	// Directives.
	if strings.HasPrefix(line, ".regs") {
		n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, ".regs")))
		if err != nil || n <= 0 {
			return fmt.Errorf("bad .regs directive")
		}
		b.SetRegsPerThread(n)
		return nil
	}
	// Leading PC prefix from disassembly ("  12: OP ...").
	if i := strings.Index(line, ":"); i >= 0 {
		head := strings.TrimSpace(line[:i])
		if _, err := strconv.Atoi(head); err == nil {
			line = strings.TrimSpace(line[i+1:])
			if line == "" {
				return fmt.Errorf("instruction index without instruction")
			}
		} else if !strings.ContainsAny(head, " \t") && i == len(line)-1 {
			// Label definition.
			b.Label(head)
			return nil
		}
	}

	// Scoreboard annotations.
	wr, req := NoScoreboard, NoScoreboard
	var err error
	if line, wr, err = takeAnnot(line, "&wr=sb"); err != nil {
		return err
	}
	if line, req, err = takeAnnot(line, "&req=sb"); err != nil {
		return err
	}

	// Predicate guard "@P0" / "@!P3".
	pred, predNeg := uint8(PT), false
	if strings.HasPrefix(line, "@") {
		fields := strings.SplitN(line, " ", 2)
		if len(fields) != 2 {
			return fmt.Errorf("predicate guard without instruction")
		}
		g := strings.TrimPrefix(fields[0], "@")
		if strings.HasPrefix(g, "!") {
			predNeg = true
			g = g[1:]
		}
		p, perr := parseIdx(g, "P", NumPreds)
		if perr != nil {
			return perr
		}
		pred = p
		line = strings.TrimSpace(fields[1])
	}

	mnemonic, rest, _ := strings.Cut(line, " ")
	in, target, err := parseInstr(strings.ToUpper(mnemonic), splitOperands(rest))
	if err != nil {
		return err
	}
	in.WrScbd, in.ReqScbd = int8(wr), int8(req)
	if wr >= 0 && !in.Op.IsLongLatency() {
		return fmt.Errorf("&wr on %s", in.Op)
	}
	if in.Op.has(guarded) {
		in.Pred, in.PredNeg = pred, predNeg
	} else if pred != PT || predNeg {
		return fmt.Errorf("predicate guard on %s", in.Op)
	}

	if target == "" {
		b.Raw(in)
	} else if pc, err := strconv.Atoi(target); err == nil {
		in.Target = pc
		b.Raw(in)
	} else {
		b.emitFixup(in, target)
	}
	return nil
}

// takeAnnot strips an "&wr=sbN" style annotation, returning its value.
func takeAnnot(line, prefix string) (string, int, error) {
	i := strings.Index(line, prefix)
	if i < 0 {
		return line, NoScoreboard, nil
	}
	rest := line[i+len(prefix):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	if j == 0 {
		return line, 0, fmt.Errorf("malformed %q annotation", prefix)
	}
	n, _ := strconv.Atoi(rest[:j])
	if n >= NumBarriers {
		return line, 0, fmt.Errorf("scoreboard sb%d out of range", n)
	}
	return strings.TrimSpace(line[:i] + rest[j:]), n, nil
}

func splitOperands(s string) []string {
	var ops []string
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f != "" {
			ops = append(ops, f)
		}
	}
	return ops
}

func parseIdx(tok, prefix string, limit int) (uint8, error) {
	if !strings.HasPrefix(tok, prefix) {
		return 0, fmt.Errorf("expected %s register, got %q", prefix, tok)
	}
	n, err := strconv.Atoi(tok[len(prefix):])
	if err != nil || n < 0 || n >= limit {
		return 0, fmt.Errorf("bad %s register %q", prefix, tok)
	}
	return uint8(n), nil
}

// parseImm parses a 32-bit immediate. Literals up to MaxUint32 are
// accepted as bit patterns (0xFFFFFFFF is -1); anything wider is an
// error rather than a silent truncation.
func parseImm(tok string) (int32, error) {
	n, err := strconv.ParseInt(tok, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", tok)
	}
	if n < math.MinInt32 || n > math.MaxUint32 {
		return 0, fmt.Errorf("immediate %q does not fit in 32 bits", tok)
	}
	return int32(n), nil
}

// parseMem parses "[Ra+imm]", or "[Ra+Rb+imm]" when withRb is set;
// imm is optional.
func parseMem(tok string, withRb bool) (ra, rb uint8, imm int32, err error) {
	if !strings.HasPrefix(tok, "[") || !strings.HasSuffix(tok, "]") {
		return 0, 0, 0, fmt.Errorf("expected address operand, got %q", tok)
	}
	parts := strings.Split(tok[1:len(tok)-1], "+")
	if len(parts) > 3 {
		return 0, 0, 0, fmt.Errorf("bad address %q", tok)
	}
	if ra, err = parseIdx(strings.TrimSpace(parts[0]), "R", NumRegs); err != nil {
		return
	}
	rest := parts[1:]
	hasRb := len(rest) > 0 && strings.HasPrefix(strings.TrimSpace(rest[0]), "R")
	if hasRb {
		if rb, err = parseIdx(strings.TrimSpace(rest[0]), "R", NumRegs); err != nil {
			return
		}
		rest = rest[1:]
	}
	switch {
	case withRb && !hasRb:
		err = fmt.Errorf("address %q wants [Ra+Rb+imm]", tok)
	case hasRb && !withRb:
		err = fmt.Errorf("address %q takes a single base register", tok)
	case len(rest) == 1:
		imm, err = parseImm(strings.TrimSpace(rest[0]))
	case len(rest) > 1:
		err = fmt.Errorf("bad address %q", tok)
	}
	return
}

// parseInstr builds the instruction from its opcode-table row; an
// instruction with a target operand also returns the target text for
// fixup.
func parseInstr(mnemonic string, ops []string) (Instr, string, error) {
	name, cmpName, hasCmp := strings.Cut(mnemonic, ".")
	op, ok := opByName[name]
	if !ok || hasCmp != op.takes(oPd) {
		return Instr{}, "", fmt.Errorf("unknown mnemonic %q", mnemonic)
	}
	in := MakeInstr(op)
	if hasCmp {
		cmp, err := parseCmp(cmpName)
		if err != nil {
			return Instr{}, "", err
		}
		in.Cmp = cmp
	}
	if want := len(op.operands()); len(ops) != want {
		return Instr{}, "", fmt.Errorf("%s wants %d operands, got %d", mnemonic, want, len(ops))
	}
	if imm := opTable[op].imm; imm != NOP && !strings.HasPrefix(ops[len(ops)-1], "R") {
		in.Op = imm
	}
	var target string
	for i, o := range in.Op.operands() {
		tok := ops[i]
		var err error
		switch o {
		case oRd:
			in.Dst, err = parseIdx(tok, "R", NumRegs)
		case oPd:
			in.Dst, err = parseIdx(tok, "P", NumPreds)
		case oRa:
			in.SrcA, err = parseIdx(tok, "R", NumRegs)
		case oRb:
			in.SrcB, err = parseIdx(tok, "R", NumRegs)
		case oRc:
			in.SrcC, err = parseIdx(tok, "R", NumRegs)
		case oSR:
			in.SrcA, err = parseIdx(tok, "SR", SRThreadID+1)
		case oImm:
			in.Imm, err = parseImm(tok)
		case oMem, oMemRb:
			in.SrcA, in.SrcB, in.Imm, err = parseMem(tok, o == oMemRb)
		case oBar:
			in.Barrier, err = parseIdx(tok, "B", NumBarriers)
		case oTarget:
			target = tok
		}
		if err != nil {
			return Instr{}, "", err
		}
	}
	return in, target, nil
}

// opByName maps assembly mnemonics to opcodes. Rows with their own asm
// spelling (ISETPI, written ISETP.cmp) are reached through the register
// form's imm sibling instead.
var opByName = func() map[string]Opcode {
	m := make(map[string]Opcode, numOpcodes)
	for op := Opcode(0); op < numOpcodes; op++ {
		if opTable[op].asm == "" {
			m[opTable[op].name] = op
		}
	}
	return m
}()

func parseCmp(name string) (CmpOp, error) {
	switch name {
	case "EQ":
		return CmpEQ, nil
	case "NE":
		return CmpNE, nil
	case "LT":
		return CmpLT, nil
	case "LE":
		return CmpLE, nil
	case "GT":
		return CmpGT, nil
	case "GE":
		return CmpGE, nil
	}
	return 0, fmt.Errorf("unknown comparison %q", name)
}
