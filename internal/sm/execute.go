package sm

import (
	"fmt"
	"math"

	"subwarpsim/internal/bits"
	"subwarpsim/internal/config"
	"subwarpsim/internal/isa"
	"subwarpsim/internal/trace"
	"subwarpsim/internal/tst"
)

// execute runs one instruction for the warp's active subwarp at cycle
// now, updating architectural state, scheduling writebacks, and
// applying divergence semantics.
func (b *Block) execute(w *Warp, in isa.Instr, now int64) {
	mask := w.active
	if mask.Empty() {
		panic("sm: execute with empty active mask")
	}
	b.counters.IssuedInstrs++
	b.counters.ActiveThreads += int64(mask.Count())
	pc := w.activePC
	if b.rec != nil {
		b.emit(now, w, pc, mask, trace.KindIssue, int(in.Op))
	}

	switch in.Op {
	case isa.NOP:
		w.setActivePCs(pc + 1)

	case isa.MOVI:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			w.regs[it.Lowest()][in.Dst] = uint32(in.Imm)
		}
		w.setActivePCs(pc + 1)

	case isa.MOV:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			w.regs[l][in.Dst] = w.regs[l][in.SrcA]
		}
		w.setActivePCs(pc + 1)

	case isa.S2R:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			w.regs[l][in.Dst] = w.special(int(in.SrcA), l)
		}
		w.setActivePCs(pc + 1)

	case isa.IADD, isa.IMUL, isa.IAND, isa.IOR, isa.IXOR,
		isa.FADD, isa.FMUL:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			w.regs[l][in.Dst] = alu2(in.Op, w.regs[l][in.SrcA], w.regs[l][in.SrcB])
		}
		w.setActivePCs(pc + 1)

	case isa.IADDI, isa.IMULI, isa.SHL, isa.SHR:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			w.regs[l][in.Dst] = aluImm(in.Op, w.regs[l][in.SrcA], in.Imm)
		}
		w.setActivePCs(pc + 1)

	case isa.FFMA:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			a := math.Float32frombits(w.regs[l][in.SrcA])
			x := math.Float32frombits(w.regs[l][in.SrcB])
			c := math.Float32frombits(w.regs[l][in.SrcC])
			w.regs[l][in.Dst] = math.Float32bits(a*x + c)
		}
		w.setActivePCs(pc + 1)

	case isa.MUFU:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			x := math.Float32frombits(w.regs[l][in.SrcA])
			w.regs[l][in.Dst] = math.Float32bits(float32(1 / math.Sqrt(math.Abs(float64(x))+1)))
		}
		w.setActivePCs(pc + 1)

	case isa.ISETP:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			w.preds[l][in.Dst] = in.Cmp.Eval(int32(w.regs[l][in.SrcA]), int32(w.regs[l][in.SrcB]))
		}
		w.setActivePCs(pc + 1)

	case isa.ISETPI:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			w.preds[l][in.Dst] = in.Cmp.Eval(int32(w.regs[l][in.SrcA]), in.Imm)
		}
		w.setActivePCs(pc + 1)

	case isa.LDG, isa.TLD, isa.TEX:
		b.executeLoad(w, in, now)

	case isa.STG:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			addr := uint64(w.regs[l][in.SrcA]) + uint64(uint32(in.Imm))
			b.sm.mem.Store(addr, w.regs[l][in.SrcB])
		}
		w.setActivePCs(pc + 1)

	case isa.TRACE:
		b.executeTrace(w, in, now)

	case isa.BRA:
		b.executeBranch(w, in, now)

	case isa.BRX:
		b.executeBrx(w, in, now)

	case isa.BSSY:
		w.barriers[in.Barrier] = w.barriers[in.Barrier].Union(mask)
		w.setActivePCs(pc + 1)

	case isa.BSYNC:
		b.executeBsync(w, in, now)

	case isa.YIELD:
		b.executeYield(w, now)

	case isa.EXIT:
		b.executeExit(w, now)

	default:
		panic(fmt.Sprintf("sm: cannot execute %v", in.Op))
	}
}

// executeYield implements the YIELD hint: with SI and subwarp-yield
// enabled, the active subwarp gives up its slot when another is READY.
func (b *Block) executeYield(w *Warp, now int64) {
	w.setActivePCs(w.activePC + 1)
	if b.cfg.SI.Enabled && b.cfg.SI.Yield && !w.tab.Mask(tst.Ready).Empty() {
		b.yield(w, now)
	}
}

// executeExit retires the active subwarp's threads, then releases
// barrier waiters the exit satisfied or switches to a READY subwarp.
func (b *Block) executeExit(w *Warp, now int64) {
	mask := w.active
	if b.rec != nil {
		b.emit(now, w, w.activePC, mask, trace.KindExit, 0)
	}
	w.tab.Exit(mask)
	w.dropActive()
	w.checkExit()
	if !w.exited {
		b.releaseAfterExit(w, now)
	}
}

func alu2(op isa.Opcode, a, b uint32) uint32 {
	switch op {
	case isa.IADD:
		return a + b
	case isa.IMUL:
		return a * b
	case isa.IAND:
		return a & b
	case isa.IOR:
		return a | b
	case isa.IXOR:
		return a ^ b
	case isa.FADD:
		return math.Float32bits(math.Float32frombits(a) + math.Float32frombits(b))
	case isa.FMUL:
		return math.Float32bits(math.Float32frombits(a) * math.Float32frombits(b))
	default:
		panic("sm: not an alu2 op")
	}
}

func aluImm(op isa.Opcode, a uint32, imm int32) uint32 {
	switch op {
	case isa.IADDI:
		return a + uint32(imm)
	case isa.IMULI:
		return a * uint32(imm)
	case isa.SHL:
		return a << (uint32(imm) & 31)
	case isa.SHR:
		return a >> (uint32(imm) & 31)
	default:
		panic("sm: not an aluImm op")
	}
}

// executeLoad issues a global or texture load: per-thread addresses are
// coalesced into cache lines, each line probes the L1D backed by the
// fixed-latency stub, scoreboards increment per thread, and per-thread
// writeback events are scheduled for when each thread's line arrives.
func (b *Block) executeLoad(w *Warp, in isa.Instr, now int64) {
	mask := w.active
	sbid := int(in.WrScbd)
	w.sb.Inc(mask, sbid)
	if b.rec != nil {
		b.emit(now, w, w.activePC, mask, trace.KindScbdSet, sbid)
	}

	isTex := in.Op.IsTexPath()
	kind := wbLoad
	extra := int64(0)
	if isTex {
		kind = wbTex
		extra = int64(b.cfg.TexExtraLatency)
	}

	lineBytes := uint64(b.cfg.CacheLineBytes)
	// Dedup coalesced lines through the block-owned scratch slice: a warp
	// touches at most 32 lines per load, so a linear scan beats a map and
	// reuses the same backing array every instruction.
	lines := b.scratchLines[:0]
	for it := mask; !it.Empty(); it = it.DropLowest() {
		l := it.Lowest()
		addr := uint64(w.regs[l][in.SrcA]) + uint64(uint32(in.Imm))
		if in.Op == isa.TEX {
			addr += uint64(w.regs[l][in.SrcB])
		}
		line := addr / lineBytes * lineBytes
		ready, seen := int64(0), false
		for _, lf := range lines {
			if lf.line == line {
				ready, seen = lf.ready, true
				break
			}
		}
		if !seen {
			b.counters.L1DAccesses++
			b.counters.LinesFetched++
			r, hit := b.sm.l1d.Access(line, now, func(at int64) int64 {
				return at + int64(b.cfg.L1MissLatency)
			})
			if !hit {
				b.counters.L1DMisses++
			}
			if minReady := now + int64(b.cfg.L1DataHitLatency); r < minReady {
				r = minReady
			}
			ready = r
			lines = append(lines, lineFill{line: line, ready: r})
		}
		b.events.push(wbEvent{
			at: ready + extra, warp: w, lane: l,
			reg: in.Dst, sbid: in.WrScbd, kind: kind, addr: addr,
		})
	}
	b.scratchLines = lines

	w.setActivePCs(w.activePC + 1)
	b.afterLongOp(w, now)
}

// lineFill records one coalesced cache line's ready time within a
// single load instruction (scratch-slice replacement for a per-call
// map in executeLoad).
type lineFill struct {
	line  uint64
	ready int64
}

// executeTrace offloads a TraceRay per thread to the RT core; each
// thread's result returns after the core's modeled traversal latency.
func (b *Block) executeTrace(w *Warp, in isa.Instr, now int64) {
	if b.sm.rt == nil {
		panic(fmt.Sprintf("sm: kernel %q uses TRACE but provides no BVH/RayGen", b.sm.prog.Name))
	}
	mask := w.active
	w.sb.Inc(mask, int(in.WrScbd))
	if b.rec != nil {
		b.emit(now, w, w.activePC, mask, trace.KindScbdSet, int(in.WrScbd))
	}
	maxLat := int64(0)
	for it := mask; !it.Empty(); it = it.DropLowest() {
		l := it.Lowest()
		rayID := w.regs[l][in.SrcA]
		material, steps, lat := b.sm.rt.Trace(rayID)
		b.counters.RTTraces++
		b.counters.RTTraversalSteps += int64(steps)
		if lat > maxLat {
			maxLat = lat
		}
		// The hit record is material+1, so a miss (MissMaterial) writes 0.
		b.events.push(wbEvent{
			at: now + lat, warp: w, lane: l,
			reg: in.Dst, sbid: in.WrScbd, kind: wbTrace, val: uint32(material + 1),
		})
	}
	if b.rec != nil {
		b.emit(now, w, w.activePC, mask, trace.KindRTStart, int(maxLat))
	}
	w.setActivePCs(w.activePC + 1)
	b.afterLongOp(w, now)
}

// afterLongOp applies the hardware subwarp-yield policy: after the
// active subwarp has issued YieldThreshold long-latency operations
// since activation, it eagerly yields its slot if another subwarp is
// READY (Section III-B).
func (b *Block) afterLongOp(w *Warp, now int64) {
	w.longOpsSinceActivation++
	if !b.cfg.SI.Enabled || !b.cfg.SI.Yield {
		return
	}
	if w.longOpsSinceActivation < b.cfg.SI.YieldThreshold {
		return
	}
	if w.tab.Mask(tst.Ready).Empty() {
		return
	}
	b.yield(w, now)
}

// yield performs subwarp-yield on the active subwarp.
func (b *Block) yield(w *Warp, now int64) {
	b.counters.SubwarpYields++
	if b.rec != nil {
		b.emit(now, w, w.activePC, w.active, trace.KindYield, 0)
	}
	w.tab.Yield(w.active)
	w.dropActive()
}

// subgroup is one PC-aligned set produced by a divergent branch.
type subgroup struct {
	mask bits.Mask
	pc   int
}

// executeBranch implements BRA with predicate-driven divergence.
func (b *Block) executeBranch(w *Warp, in isa.Instr, now int64) {
	mask := w.active
	var taken bits.Mask
	for it := mask; !it.Empty(); it = it.DropLowest() {
		l := it.Lowest()
		p := true
		if in.Pred != isa.PT {
			p = w.preds[l][in.Pred]
		}
		if in.PredNeg {
			p = !p
		}
		if p {
			taken = taken.Set(l)
		}
	}
	notTaken := mask.Minus(taken)

	switch {
	case notTaken.Empty():
		w.setActivePCs(in.Target)
	case taken.Empty():
		w.setActivePCs(w.activePC + 1)
	default:
		b.scratchGroups = append(b.scratchGroups[:0],
			subgroup{mask: taken, pc: in.Target},
			subgroup{mask: notTaken, pc: w.activePC + 1},
		)
		b.splinter(w, b.scratchGroups, true, now)
	}
}

// executeBrx implements the indirect branch that dispatches shader
// subroutines: active threads group by their per-thread target PC.
func (b *Block) executeBrx(w *Warp, in isa.Instr, now int64) {
	// Group lanes by target in ascending lane order via a linear scan
	// over the groups found so far (a warp produces at most 32 groups,
	// where a map would allocate per call), then insertion-sort by
	// target PC. Targets are distinct across groups, so the ascending-PC
	// order handed to splinter is exactly what the previous map+sort
	// implementation produced — group order feeds electWinner
	// (largest-first tie-breaks, random draws, fallthrough's last-group
	// pick), so it must not change.
	groups := b.scratchGroups[:0]
	for it := w.active; !it.Empty(); it = it.DropLowest() {
		l := it.Lowest()
		t := int(w.regs[l][in.SrcA])
		if t < 0 || t >= b.sm.prog.Len() {
			panic(fmt.Sprintf("sm: BRX target %d out of range in %q (warp %d lane %d)",
				t, b.sm.prog.Name, w.ID, l))
		}
		found := false
		for gi := range groups {
			if groups[gi].pc == t {
				groups[gi].mask = groups[gi].mask.Set(l)
				found = true
				break
			}
		}
		if !found {
			groups = append(groups, subgroup{mask: bits.LaneMask(l), pc: t})
		}
	}
	b.scratchGroups = groups
	if len(groups) == 1 {
		w.setActivePCs(groups[0].pc)
		return
	}
	for i := 1; i < len(groups); i++ {
		g := groups[i]
		j := i - 1
		for j >= 0 && groups[j].pc > g.pc {
			groups[j+1] = groups[j]
			j--
		}
		groups[j+1] = g
	}
	b.splinter(w, groups, false, now)
}

// splinter applies a divergent control-flow split: per-thread PCs move
// to their group targets, the activation-order policy elects one group
// to stay ACTIVE, and the rest transition to READY.
func (b *Block) splinter(w *Warp, groups []subgroup, isBRA bool, now int64) {
	b.counters.DivergentBranches++
	for _, g := range groups {
		for it := g.mask; !it.Empty(); it = it.DropLowest() {
			w.pcs[it.Lowest()] = g.pc
		}
	}
	win := b.electWinner(groups, isBRA)
	for i, g := range groups {
		if i == win {
			continue
		}
		for it := g.mask; !it.Empty(); it = it.DropLowest() {
			w.tab.SetState(it.Lowest(), tst.Ready)
		}
		if b.rec != nil {
			b.emit(now, w, g.pc, g.mask, trace.KindDivergeReady, len(groups))
		}
	}
	w.activate(groups[win].mask, groups[win].pc)
	if b.rec != nil {
		b.emit(now, w, groups[win].pc, groups[win].mask, trace.KindActivate, len(groups))
	}

	if live := int64(w.tab.LiveSubwarps()); live > b.counters.MaxLiveSubwarps {
		b.counters.MaxLiveSubwarps = live
	}
}

// electWinner picks which subgroup keeps executing per the configured
// activation order. For BRA, groups[0] is the taken path and groups[1]
// the fall-through; for BRX, groups arrive sorted by target PC.
func (b *Block) electWinner(groups []subgroup, isBRA bool) int {
	switch b.cfg.Order {
	case config.OrderFallthroughFirst:
		if isBRA {
			return 1
		}
		return len(groups) - 1
	case config.OrderLargestFirst:
		win := 0
		for i, g := range groups {
			if g.mask.Count() > groups[win].mask.Count() {
				win = i
			}
		}
		return win
	case config.OrderRandom:
		return b.rng.Intn(len(groups))
	default: // OrderTakenFirst
		return 0
	}
}

// switchAfterBlock performs the subwarp switch required when the
// active subwarp vacated its slot at a BSYNC or thread exit. The
// baseline's divergence handling unit does this for free; with SI that
// unit is replaced by the subwarp scheduler (Fig. 6), whose
// subwarp-select pays the fixed switch latency — Section III-B lists
// "an unsuccessful BSYNC" among the events that trigger subwarp-select.
func (b *Block) switchAfterBlock(w *Warp, now int64) {
	if !b.cfg.SI.Enabled {
		if w.selectImmediate() && b.rec != nil {
			b.emit(now, w, w.activePC, w.active, trace.KindActivate, 0)
		}
		return
	}
	if w.tab.Mask(tst.Ready).Empty() {
		return // wakeups will make the warp selectable via the policy
	}
	w.pendingSelect = true
	w.selectDoneAt = now + int64(b.cfg.SI.SwitchLatency)
	if b.rec != nil {
		b.emit(now, w, -1, 0, trace.KindSelectStart, b.cfg.SI.SwitchLatency)
	}
}

// executeBsync implements the convergence barrier wait: the arriving
// subwarp reconverges with the barrier's participants if everyone else
// is already blocked here or exited; otherwise it blocks and the
// divergence unit switches to a READY subwarp.
func (b *Block) executeBsync(w *Warp, in isa.Instr, now int64) {
	bar := int(in.Barrier)
	parts := w.barriers[bar]
	arrived := w.active
	if !parts.Contains(arrived) {
		panic(fmt.Sprintf("sm: BSYNC B%d by non-participant threads (warp %d pc %d)",
			bar, w.ID, w.activePC))
	}

	success := true
	for it := parts.Minus(arrived); !it.Empty(); it = it.DropLowest() {
		l := it.Lowest()
		switch w.tab.State(l) {
		case tst.Inactive:
		case tst.Blocked:
			if w.pcs[l] != w.activePC {
				success = false // blocked at a different (nested) barrier
			}
		default:
			success = false
		}
	}

	if success {
		blocked := parts.Intersect(w.tab.Mask(tst.Blocked))
		w.tab.Release(blocked)
		joined := arrived.Union(blocked)
		for it := joined; !it.Empty(); it = it.DropLowest() {
			w.pcs[it.Lowest()] = w.activePC + 1
		}
		w.activate(joined, w.activePC+1)
		w.barriers[bar] = 0
		b.counters.Reconvergences++
		if b.rec != nil {
			b.emit(now, w, w.activePC, joined, trace.KindReconverge, bar)
			b.emit(now, w, w.activePC, joined, trace.KindActivate, bar)
		}
		return
	}

	w.tab.Block(arrived)
	w.dropActive()
	if b.rec != nil {
		b.emit(now, w, w.activePC, arrived, trace.KindBarrierBlock, bar)
	}
	b.switchAfterBlock(w, now)
}

// releaseAfterExit handles threads blocked at a BSYNC whose remaining
// participants have all exited: the barrier is now satisfied but nobody
// will execute the BSYNC again, so the divergence unit releases them.
// If no barrier released, it falls back to selecting a READY subwarp.
func (b *Block) releaseAfterExit(w *Warp, now int64) {
	blocked := w.tab.Mask(tst.Blocked)
	for bar := 0; bar < isa.NumBarriers; bar++ {
		parts := w.barriers[bar]
		waiting := parts.Intersect(blocked)
		if waiting.Empty() {
			continue
		}
		satisfied := true
		pc := -1
		for it := parts; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			switch w.tab.State(l) {
			case tst.Inactive:
			case tst.Blocked:
				if pc == -1 {
					pc = w.pcs[l]
				} else if w.pcs[l] != pc {
					satisfied = false
				}
			default:
				satisfied = false
			}
		}
		if !satisfied || pc < 0 {
			continue
		}
		w.tab.Release(waiting)
		for it := waiting; !it.Empty(); it = it.DropLowest() {
			w.pcs[it.Lowest()] = pc + 1
		}
		w.activate(waiting, pc+1)
		w.barriers[bar] = 0
		b.counters.Reconvergences++
		if b.rec != nil {
			b.emit(now, w, pc+1, waiting, trace.KindReconverge, bar)
			b.emit(now, w, pc+1, waiting, trace.KindActivate, bar)
		}
		return
	}
	b.switchAfterBlock(w, now)
}
