package server

import (
	"fmt"
	"strings"

	"subwarpsim/internal/config"
	"subwarpsim/internal/simcache"
	"subwarpsim/internal/sm"
	"subwarpsim/internal/workload"
)

// JobSpec is the wire form of one simulation job: a workload (an
// application trace name, a microbenchmark subwarp size, or a
// registered workload-family name) plus the architecture/policy knobs
// the sisim CLI exposes. The zero value of every knob means "paper
// default".
type JobSpec struct {
	// App names an application trace (see workload.AppNames).
	// Exactly one of App, Microbench, and Workload must be set.
	App string `json:"app,omitempty"`
	// Microbench runs the divergence microbenchmark with this subwarp
	// size (1, 2, 4, 8, 16, or 32).
	Microbench int `json:"microbench,omitempty"`
	// Workload names a registered synthetic workload family
	// (see workload.GeneratorNames: "gemm", "bfs", "texture", ...).
	Workload string `json:"workload,omitempty"`

	// SI enables Subwarp Interleaving; DWS models Dynamic Warp
	// Subdivision instead (mutually exclusive with SI).
	SI  bool `json:"si,omitempty"`
	DWS bool `json:"dws,omitempty"`
	// Yield enables subwarp-yield (the paper's "Both" mode).
	Yield bool `json:"yield,omitempty"`
	// Trigger is the subwarp-select trigger: "any", "half" (default),
	// or "all".
	Trigger string `json:"trigger,omitempty"`
	// LatencyCycles overrides the L1 miss latency (default 600).
	LatencyCycles int `json:"latency_cycles,omitempty"`
	// WarpSlots overrides warp slots per processing block (default 8).
	WarpSlots int `json:"warp_slots,omitempty"`
	// MaxSubwarps caps TST entries per warp (0 = unlimited).
	MaxSubwarps int `json:"max_subwarps,omitempty"`
	// Order is the divergent-path activation order: "taken" (default),
	// "fallthrough", "largest", or "random".
	Order string `json:"order,omitempty"`
	// Policy is the warp-scheduler arbitration rule: "lrr" (default),
	// "gto", or "wasp".
	Policy string `json:"policy,omitempty"`
	// Compile is accepted for compatibility and ignored: "", "on" and
	// "off" all run the compiled engine (any other value is rejected).
	// Engine choice never changed results, and the cache key ignores
	// it.
	Compile string `json:"compile,omitempty"`

	// TimeoutMS bounds this job's simulation wall time; 0 uses the
	// server default. The server clamps it to its configured maximum.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// knobs is the architecture/policy half JobSpec and SubmitSpec share.
// SubmitSpec has no latency, warp-slot or TST-capacity knob, so it
// leaves those zero (the paper default).
type knobs struct {
	si, dws, yield                        bool
	trigger, order, policy, compile       string
	latencyCycles, warpSlots, maxSubwarps int
}

// config checks the knobs' names and maps the knobs onto the paper's
// Table I defaults. The spec types check si/dws exclusivity and
// negative values themselves, with their own messages.
func (k knobs) config() (config.Config, error) {
	cfg := config.Default()
	trigger, err := config.ParseTrigger(k.trigger)
	if err != nil {
		return cfg, err
	}
	policy, err := config.ParseSchedPolicy(k.policy)
	if err != nil {
		return cfg, err
	}
	order, err := config.ParseOrder(k.order)
	if err != nil {
		return cfg, err
	}
	switch strings.ToLower(k.compile) {
	case "", "on", "off":
	default:
		return cfg, fmt.Errorf("unknown compile mode %q (on, off)", k.compile)
	}
	if k.latencyCycles > 0 {
		cfg.L1MissLatency = k.latencyCycles
	}
	if k.warpSlots > 0 {
		cfg.WarpSlotsPerBlock = k.warpSlots
	}
	cfg.Order = order
	cfg.SchedPolicy = policy
	if k.dws {
		cfg = cfg.WithDWS()
	} else if k.si {
		cfg = cfg.WithSI(k.yield, trigger)
		cfg.SI.MaxSubwarps = k.maxSubwarps
	}
	return cfg, nil
}

func (j JobSpec) knobs() knobs {
	return knobs{
		si: j.SI, dws: j.DWS, yield: j.Yield,
		trigger: j.Trigger, order: j.Order, policy: j.Policy, compile: j.Compile,
		latencyCycles: j.LatencyCycles, warpSlots: j.WarpSlots, maxSubwarps: j.MaxSubwarps,
	}
}

// workloadCount counts how many of the three workload selectors the
// spec sets; exactly one must be.
func (j JobSpec) workloadCount() int {
	n := 0
	if j.App != "" {
		n++
	}
	if j.Microbench != 0 {
		n++
	}
	if j.Workload != "" {
		n++
	}
	return n
}

// Validate reports the first problem with the spec.
func (j JobSpec) Validate() error {
	if err := j.checkShape(); err != nil {
		return err
	}
	_, err := j.knobs().config()
	return err
}

// checkShape validates everything but the knob names: the workload
// selector, and si/dws exclusivity and negative values.
func (j JobSpec) checkShape() error {
	switch {
	case j.workloadCount() == 0:
		return fmt.Errorf("spec needs a workload: set app, microbench, or workload")
	case j.workloadCount() > 1:
		return fmt.Errorf("spec sets more than one of app, microbench, and workload; pick one")
	case j.Microbench < 0:
		return fmt.Errorf("microbench subwarp size %d must be positive", j.Microbench)
	case j.SI && j.DWS:
		return fmt.Errorf("spec sets both si and dws; pick one")
	case j.LatencyCycles < 0 || j.WarpSlots < 0 || j.MaxSubwarps < 0 || j.TimeoutMS < 0:
		return fmt.Errorf("negative knob values are invalid")
	}
	switch {
	case j.App != "":
		_, err := workload.ProfileByName(j.App)
		return err
	case j.Workload != "":
		// Generators validate their (default) parameters at build time;
		// here only the name needs to resolve.
		_, err := workload.GeneratorByName(j.Workload)
		return err
	default:
		return workload.DefaultMicrobench(j.Microbench).Validate()
	}
}

// Config builds the architecture configuration the spec describes,
// starting from the paper's Table I defaults.
func (j JobSpec) Config() (config.Config, error) {
	if err := j.checkShape(); err != nil {
		return config.Default(), err
	}
	cfg, err := j.knobs().config()
	if err != nil {
		return cfg, err
	}
	return cfg, cfg.Validate()
}

// BuildKernel constructs a fresh kernel for the spec's workload.
// Kernels carry mutable functional state, so every simulation needs
// its own.
func (j JobSpec) BuildKernel() (*sm.Kernel, error) {
	switch {
	case j.App != "":
		p, err := workload.ProfileByName(j.App)
		if err != nil {
			return nil, err
		}
		return workload.Megakernel(p)
	case j.Workload != "":
		return workload.BuildByName(j.Workload)
	default:
		return workload.Microbench(workload.DefaultMicrobench(j.Microbench))
	}
}

// CacheKey computes the spec's content address — the same
// simcache.Key Submit uses — without running anything. The cluster
// coordinator hashes it onto the consistent-hash ring so that a spec
// routes to the node whose memory LRU already holds its result.
// Building the kernel makes this costlier than a pure hash; routing
// layers should memoize per spec (JobSpec is comparable).
func (j JobSpec) CacheKey() (simcache.Key, error) {
	cfg, err := j.Config()
	if err != nil {
		return simcache.Key{}, err
	}
	kernel, err := j.BuildKernel()
	if err != nil {
		return simcache.Key{}, err
	}
	return simcache.KeyOf(cfg, kernel, j.WorkloadID()), nil
}

// WorkloadID is the workload half of the cache key: a stable name for
// how BuildKernel constructs the kernel.
func (j JobSpec) WorkloadID() string {
	switch {
	case j.App != "":
		return "app/" + j.App
	case j.Workload != "":
		return "gen/" + j.Workload
	default:
		return fmt.Sprintf("micro/%d", j.Microbench)
	}
}
