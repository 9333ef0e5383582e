package sm

import (
	"testing"

	"subwarpsim/internal/isa"
)

// TestApplySimpleMatchesFastForwardSet pins applySimple's op set to the
// compile pass's: an opcode is accepted by applySimple exactly when,
// without a scoreboard wait, the pass lets it into a fast-forward run
// (FFLenYieldInert > 0; FFLen, which also ends runs at YIELD, is a
// subset). A new op the pass marks simple but applySimple cannot apply
// would panic mid-run; one applySimple handles but the pass never runs
// would leave stepped issue without an explicit arm.
func TestApplySimpleMatchesFastForwardSet(t *testing.T) {
	for op := isa.Opcode(0); op.Valid(); op++ {
		p := &isa.Program{Name: op.String(), Code: []isa.Instr{
			{Op: op, WrScbd: isa.NoScoreboard, ReqScbd: isa.NoScoreboard},
		}}
		cp := p.Compiled()
		inRun := cp.FFLenYieldInert[0] > 0
		if cp.FFLen[0] > 0 && !inRun {
			t.Errorf("%v: in an FFLen run but not an FFLenYieldInert run", op)
		}
		applies := func() (ok bool) {
			defer func() {
				if recover() != nil {
					ok = false
				}
			}()
			w := newWarp(0, 0, 0, 64, 6, 0)
			w.applySimple(w.active, &cp.Ops[0])
			return true
		}()
		if applies != inRun {
			t.Errorf("%v: applySimple accepts=%v, compile pass fast-forwards=%v", op, applies, inRun)
		}
	}
}
