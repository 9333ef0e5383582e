package sm

import (
	"fmt"
	"math"

	"subwarpsim/internal/bits"
	"subwarpsim/internal/isa"
	"subwarpsim/internal/trace"
	"subwarpsim/internal/tst"
)

// Compiled execution: when cfg.Compiled is set, the SM executes the
// program's pre-decoded operation stream (isa.Compiled) instead of
// re-decoding and switch-dispatching in execute() every cycle, and
// SM.RunContext retires eligible straight-line convergent regions in
// bulk (basic-block fast-forward, see ffRun/ffCommit). Stepped issue
// and fast-forward share one implementation of every
// fast-forward-simple op, applySimple; execute() stays as the
// independent reference the differential, golden and fuzz suites hold
// the compiled engine to — counters, memory, and trace streams.

// executeCompiled is the compiled-mode twin of execute(): identical
// issue bookkeeping, then dispatch on the pre-decoded stream. Loads,
// ray tracing and control flow share the interpreter's implementation
// through the original instruction; STG, the one event-free op that
// writes memory, stays inline on the pre-widened offset; every other
// op is fast-forward-simple.
func (b *Block) executeCompiled(w *Warp, now int64) {
	mask := w.active
	if mask.Empty() {
		panic("sm: execute with empty active mask")
	}
	b.counters.IssuedInstrs++
	b.counters.ActiveThreads += int64(mask.Count())
	pc := w.activePC
	op := &b.cops[pc]
	if b.rec != nil {
		b.emit(now, w, pc, mask, trace.KindIssue, int(op.Op))
	}
	switch op.Exec {
	case isa.ExecLOAD:
		b.executeLoad(w, b.sm.prog.Code[pc], now)
	case isa.ExecSTG:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			b.sm.mem.Store(uint64(w.regs[l][op.SrcA])+op.UImm, w.regs[l][op.SrcB])
		}
		w.setActivePCs(pc + 1)
	case isa.ExecTRACE:
		b.executeTrace(w, b.sm.prog.Code[pc], now)
	case isa.ExecBRA:
		b.executeBranch(w, b.sm.prog.Code[pc], now)
	case isa.ExecBRX:
		b.executeBrx(w, b.sm.prog.Code[pc], now)
	case isa.ExecBSYNC:
		b.executeBsync(w, b.sm.prog.Code[pc], now)
	case isa.ExecYIELD:
		b.executeYield(w, now)
	case isa.ExecEXIT:
		b.executeExit(w, now)
	default:
		w.applySimple(mask, op)
		w.setActivePCs(pc + 1)
	}
}

// applySimple applies one fast-forward-simple operation (the ops the
// compile pass lets into an isa.Compiled.FFLen run) to the lanes in
// mask, leaving the PC alone. It is the compiled engine's only
// implementation of these ops: stepped issue calls it once per issue,
// ffCommit once per retired op of a run. YIELD is a no-op here because
// it reaches a run only via FFLenYieldInert, selected when the hint is
// architecturally inert.
func (w *Warp) applySimple(mask bits.Mask, op *isa.COp) {
	switch op.Exec {
	case isa.ExecNOP, isa.ExecYIELD:
	case isa.ExecMOVI:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			w.regs[it.Lowest()][op.Dst] = uint32(op.Imm)
		}
	case isa.ExecMOV:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			w.regs[l][op.Dst] = w.regs[l][op.SrcA]
		}
	case isa.ExecS2R:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			w.regs[l][op.Dst] = w.special(int(op.SrcA), l)
		}
	case isa.ExecIADD:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			w.regs[l][op.Dst] = w.regs[l][op.SrcA] + w.regs[l][op.SrcB]
		}
	case isa.ExecIADDI:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			w.regs[l][op.Dst] = w.regs[l][op.SrcA] + uint32(op.Imm)
		}
	case isa.ExecIMUL:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			w.regs[l][op.Dst] = w.regs[l][op.SrcA] * w.regs[l][op.SrcB]
		}
	case isa.ExecIMULI:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			w.regs[l][op.Dst] = w.regs[l][op.SrcA] * uint32(op.Imm)
		}
	case isa.ExecIAND:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			w.regs[l][op.Dst] = w.regs[l][op.SrcA] & w.regs[l][op.SrcB]
		}
	case isa.ExecIOR:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			w.regs[l][op.Dst] = w.regs[l][op.SrcA] | w.regs[l][op.SrcB]
		}
	case isa.ExecIXOR:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			w.regs[l][op.Dst] = w.regs[l][op.SrcA] ^ w.regs[l][op.SrcB]
		}
	case isa.ExecSHL:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			w.regs[l][op.Dst] = w.regs[l][op.SrcA] << op.Sh
		}
	case isa.ExecSHR:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			w.regs[l][op.Dst] = w.regs[l][op.SrcA] >> op.Sh
		}
	case isa.ExecISETP:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			w.preds[l][op.Dst] = op.Cmp.Eval(int32(w.regs[l][op.SrcA]), int32(w.regs[l][op.SrcB]))
		}
	case isa.ExecISETPI:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			w.preds[l][op.Dst] = op.Cmp.Eval(int32(w.regs[l][op.SrcA]), op.Imm)
		}
	case isa.ExecFADD:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			a := math.Float32frombits(w.regs[l][op.SrcA])
			x := math.Float32frombits(w.regs[l][op.SrcB])
			w.regs[l][op.Dst] = math.Float32bits(a + x)
		}
	case isa.ExecFMUL:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			a := math.Float32frombits(w.regs[l][op.SrcA])
			x := math.Float32frombits(w.regs[l][op.SrcB])
			w.regs[l][op.Dst] = math.Float32bits(a * x)
		}
	case isa.ExecFFMA:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			a := math.Float32frombits(w.regs[l][op.SrcA])
			x := math.Float32frombits(w.regs[l][op.SrcB])
			c := math.Float32frombits(w.regs[l][op.SrcC])
			w.regs[l][op.Dst] = math.Float32bits(a*x + c)
		}
	case isa.ExecMUFU:
		for it := mask; !it.Empty(); it = it.DropLowest() {
			l := it.Lowest()
			x := math.Float32frombits(w.regs[l][op.SrcA])
			w.regs[l][op.Dst] = math.Float32bits(float32(1 / math.Sqrt(math.Abs(float64(x))+1)))
		}
	case isa.ExecBSSY:
		w.barriers[op.Barrier] = w.barriers[op.Barrier].Union(mask)
	default:
		panic(fmt.Sprintf("sm: %v is not fast-forward-simple", op.Op))
	}
}

// ---- Basic-block fast-forward --------------------------------------
//
// After a lock-step cycle in which every non-done block either issued
// or is provably idle, SM.ffHorizon asks each block how many upcoming
// cycles are "inert": the issuing warp sits in a fast-forward-simple
// run (isa.Compiled.FFLen) confined to its already-fetched icache
// line, so for every cycle before the horizon
//
//   - the block's scheduler would re-pick the same warp (greedy
//     last-issued-first over frozen statuses),
//   - executing the op touches only that warp's registers, predicates,
//     or convergence-barrier masks — state no other warp, block, or
//     counter observes mid-run,
//   - no writeback, select completion, or fetch fill is due (the
//     horizon is capped by nextEventTime, which covers all three), and
//   - with SI enabled, no per-stepped-cycle policy action could fire:
//     no warp is scoreboard-stalled (demotion and its TSTOverflow
//     accounting re-run every stepped cycle) and subwarp-select would
//     not initiate on the frozen statuses (ffStable).
//
// Under those conditions ffCommit retires the whole window in one
// call with cycle-exact counters, and idle blocks account the same
// window through the existing skipIdle path. Fast-forward is disabled
// when a trace recorder is attached (SM.ffLen stays nil): compiled
// dispatch still runs, cycle by cycle, so trace streams are trivially
// identical.

// ffStable reports whether skipping stepped cycles is invisible to the
// block's SI policy state: no warp awaits a per-cycle demotion
// attempt, and subwarp-select cannot initiate on the frozen statuses.
// Always true with SI disabled (the baseline has no per-stepped-cycle
// policy actions).
func (b *Block) ffStable() bool {
	if !b.cfg.SI.Enabled {
		return true
	}
	stalled, live := 0, 0
	for i, w := range b.warps {
		if b.statuses[i] == classScbdWait {
			return false
		}
		if w.exited {
			continue
		}
		live++
		if b.statuses[i] == classNoActive {
			stalled++
		}
	}
	if !b.cfg.SI.Trigger.Satisfied(stalled, live) {
		return true
	}
	for i, w := range b.warps {
		if b.statuses[i] != classNoActive || w.pendingSelect {
			continue
		}
		if !w.tab.Mask(tst.Ready).Empty() {
			// maybeTriggerSelect would initiate on this warp next cycle
			// (one initiation per block per cycle), so cycles cannot be
			// skipped.
			return false
		}
	}
	return true
}

// ffRun returns how many consecutive cycles the block's last-issued
// warp can retire without any observable scheduling event: the length
// of the fast-forward-simple run at its PC, capped to the instructions
// remaining on its already-fetched icache line (crossing a line
// boundary requires the per-cycle fetch probe). Returns 0 when the
// warp is not simply advancing (exited, switched, diverted, or its
// next instruction needs a fetch or is not simple).
func (b *Block) ffRun() int64 {
	w := b.warps[b.lastPick]
	if w.exited || w.pendingSelect || w.active.Empty() || w.fetchingLine != math.MaxUint64 {
		return 0
	}
	pc := w.activePC
	run := int64(b.ffLen[pc])
	if run == 0 {
		return 0
	}
	ib := uint64(b.cfg.InstrBytes)
	lb := uint64(b.cfg.CacheLineBytes)
	line := uint64(pc) * ib / lb
	if line != w.fetchedLine {
		return 0
	}
	lastPC := int64(((line+1)*lb - 1) / ib)
	if left := lastPC - int64(pc) + 1; run > left {
		run = left
	}
	return run
}

// ffCommit retires gap cycles of the last-issued warp's simple run in
// one call, with exactly the counters cycle-by-cycle execution would
// have accrued: gap issue cycles, gap instructions, gap×|active|
// threads. Per-op PC writes are batched into one setActivePCs at the
// end — intermediate PCs are unobservable inside the window (no
// events, no tracing, no cross-warp reads). The warp stays dirty from
// its issue at the window's base cycle, so the first stepped cycle at
// the horizon re-classifies it as usual.
func (b *Block) ffCommit(gap, endCycle int64) {
	w := b.warps[b.lastPick]
	mask := w.active
	pc := w.activePC
	b.counters.IssueCycles += gap
	b.counters.IssuedInstrs += gap
	b.counters.ActiveThreads += gap * int64(mask.Count())
	for n := int64(0); n < gap; n++ {
		w.applySimple(mask, &b.cops[pc])
		pc++
	}
	w.setActivePCs(pc)
	b.counters.Cycles = endCycle
}

// ffHorizon returns the exclusive upper bound of the window the SM may
// retire in bulk after the lock-step cycle at now: at most next (the
// earliest scheduled event anywhere), further capped by every issuing
// block's simple-run length. It returns now+1 — plain single-cycle
// advance — whenever fast-forward is off, nothing issued, or any block
// cannot guarantee an inert window.
func (s *SM) ffHorizon(now, next int64, anyIssued bool) int64 {
	if s.ffLen == nil || !anyIssued || next <= now+1 {
		return now + 1
	}
	h := next
	bounded := false
	for _, blk := range s.blocks {
		if blk.done {
			continue
		}
		if !blk.ffStable() {
			return now + 1
		}
		if blk.lastPick >= 0 {
			r := blk.ffRun()
			if r <= 0 {
				return now + 1
			}
			bounded = true
			if hh := now + 1 + r; hh < h {
				h = hh
			}
		}
	}
	if !bounded {
		// The issuing block(s) finished during this step (anyIssued came
		// from a block that is now done), so no run bounds the window;
		// fall back to single-cycle advance and let the normal loop
		// terminate or idle-skip.
		return now + 1
	}
	return h
}
