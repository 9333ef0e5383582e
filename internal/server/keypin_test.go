package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"subwarpsim/internal/isa"
	"subwarpsim/internal/workload"
)

// TestKeyStability pins the content addresses the result cache stores
// under and the disassembly they hash. simcache.KeyOf hashes every
// instruction's String() on every request, so a single changed byte in
// the disassembler orphans every cached result without failing any
// behavioural test. The values are the encodings existing cache
// entries were written under; change them only together with a
// keyVersion bump.
func TestKeyStability(t *testing.T) {
	keys := []struct {
		name string
		spec JobSpec
		want string
	}{
		{"app/BFV1", JobSpec{App: "BFV1"},
			"1f7e0d4c232478e05fb7754948883f4a7c284cf5c38102fffc870b25229d6262"},
		{"gen/bfs", JobSpec{Workload: "bfs", SI: true},
			"8ed67e017f55ac4b1716507f41ba00bcad2ad6a12e53c63cec331c39b71d8448"},
		{"micro/4", JobSpec{Microbench: 4, SI: true, Yield: true},
			"5b5cb6dc0978f9ae55c4d3b86ecfadfe761123fb80fb12a82d5308ca49bbe2d4"},
	}
	for _, c := range keys {
		k, err := c.spec.CacheKey()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := k.String(); got != c.want {
			t.Errorf("%s: key %s, want %s", c.name, got, c.want)
		}
	}

	s := newTestServer(t, Options{Workers: 1})
	res, err := s.SubmitKernel(context.Background(), SubmitSpec{Assembly: submitAsm})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if want := "66cb01f23f97299fc2a63bf29e616a30ac966f40caffbc0b5b6ea77e7748a2e0"; res.Key != want {
		t.Errorf("submit: key %s, want %s", res.Key, want)
	}

	progs := map[string]*isa.Program{}
	for _, a := range workload.Apps() {
		k, err := workload.Megakernel(a)
		if err != nil {
			t.Fatalf("app %s: %v", a.Name, err)
		}
		progs["app/"+a.Name] = k.Program
	}
	for _, g := range workload.Generators() {
		k, err := g.Build()
		if err != nil {
			t.Fatalf("gen %s: %v", g.Name, err)
		}
		progs["gen/"+g.Name] = k.Program
	}
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		k, err := workload.Microbench(workload.DefaultMicrobench(n))
		if err != nil {
			t.Fatalf("micro %d: %v", n, err)
		}
		progs[fmt.Sprintf("micro/%d", n)] = k.Program
	}
	disasm := map[string]string{
		"app/AV1":     "578286d417bec86cbfc4223e3f1c4ac686754a4e8d6b837fd86f9209b21b854f",
		"app/AV2":     "7bbd7e52e49f9fdc8bf004cbb9e98201062e1589889d829912e61e84c2d8ebe5",
		"app/BFV1":    "317cb2cd1b28b57303a005cae955747d363ce28e39eb68f9706f73c6668f7ca5",
		"app/BFV2":    "83c9ce9f033149202e5f51261f1afbc3d963afba6932a6f98c517e8c4cce49a4",
		"app/Coll1":   "ea4f59b90643f2dd3be4d6fa8964a2e56be22944753f115aa56f977688f97fa0",
		"app/Coll2":   "ca080d3c0a90948dae344b78a08b8c3f23c6baef6815e4102f5683edd3b102e3",
		"app/Ctrl":    "0d4648878a99ca439f87d75ec35a44f52c2678e313a8bafc1e54222e19aee563",
		"app/DDGI":    "9db2de32f5678f2e2b891dea7163201124de2b94fbbcc3a2eaebebf32c47e5d7",
		"app/MC":      "dd51998865bdfe0c17271e1a67f0a94057c2198ccfeae521479bab42faad046e",
		"app/MW":      "b8f84d6693b4af3c7c028a9b2f95ad2a4319ca5e17a384c8704e0f2882502b33",
		"gen/bfs":     "f194af58cb69b07bc68d3fb797a9c0e683da9a2135326540bca22270eca55715",
		"gen/gemm":    "1a2efcace8570ff78435273fa83404a5888a3b98e575766ed10b805e2db4a98b",
		"gen/texture": "eee8edc618ede8db086c87fa724c8150a995a32e30439d70d38e2e937a08682d",
		"micro/1":     "a1fbd5bab03e76a745946f287916f16b3ea3dd4e06b441e2735b91478a169db6",
		"micro/2":     "f4f0f9a9e269f47dbc92d2409e8a36f6b2ce5e30fd6c7bc798c353bab7aff339",
		"micro/4":     "7480b3499117293c99bf856285d764c8a2c809e83e741b147154c90fd56c8ce9",
		"micro/8":     "8b0ee84e2a5c885b67675b75d0f75035a4fd22094492b2e198652c362c6e7293",
		"micro/16":    "fce9f988d8bdc8d29b16614e505897153c29c00f52c58fe7943f5a3962b586a9",
		"micro/32":    "9896d52601724bf8d90dc6295a7d0125b3c07e735fafc8177e0500df662ac651",
	}
	if len(progs) != len(disasm) {
		t.Errorf("catalogue has %d programs, %d pinned", len(progs), len(disasm))
	}
	for name, p := range progs {
		sum := sha256.Sum256([]byte(p.Disassemble()))
		if got := hex.EncodeToString(sum[:]); got != disasm[name] {
			t.Errorf("%s: disassembly sha256 %s, want %s", name, got, disasm[name])
		}
	}
}
