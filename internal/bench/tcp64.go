package bench

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/geom"
	"repro/internal/machine"
	"repro/internal/workload"
	"repro/internal/wprog"
)

// The paper-scale benchmark platform: ocean on the 64-core 8x8 mesh,
// served by 8 node processes of 8 cores each — the shape the sharded
// control plane exists for. The tcp64 entries record the fan-in win on
// the BENCH trajectory: the coordinator's writes/op stays O(nodes) while
// 64 initial contexts and all cross-node traffic ride the batch plane.

const tcp64Nodes = 8

func tcp64Mesh() geom.Mesh { return geom.NewMesh(8, 8) }

// compiled64 caches the 64-core ocean compilation per sizing (compiling
// inside a benchmark body would pollute the timings).
var compiled64 = func() func(short bool) *wprog.Compiled {
	compile := func(scale int) *wprog.Compiled {
		cfg := workload.Config{Threads: 64, Scale: scale, Iters: 1, Seed: 2011}
		c, err := wprog.CompileWorkload("ocean", cfg, tcp64Mesh().Cores())
		if err != nil {
			panic(fmt.Sprintf("bench: compile 64-core ocean: %v", err))
		}
		return c
	}
	full := sync.OnceValue(func() *wprog.Compiled { return compile(128) })
	short := sync.OnceValue(func() *wprog.Compiled { return compile(64) })
	return func(s bool) *wprog.Compiled {
		if s {
			return short()
		}
		return full()
	}
}()

// tcp64Specs returns the paper-scale benchmark pair: the single-process
// reference and the 8-node cluster. Neither is gated: they are trajectory
// entries, recording the cluster's overhead against the reference and the
// coordinator's O(nodes) write cost.
func tcp64Specs() []Spec {
	cfg := machine.ClusterConfig{
		Quantum:   16,
		Scheme:    "history:2",
		Placement: fmt.Sprintf("page-striped:%d", wprog.PageBytes),
		Timeout:   120 * time.Second,
	}
	lit := func(short bool) machine.Litmus { return compiled64(short).Litmus() }
	return []Spec{
		machineSpec("machine/channel64/ocean", false, false, mustRunner(tcp64Mesh(), 0, cfg), lit),
		machineSpec("machine/tcp64/ocean", false, false, mustRunner(tcp64Mesh(), tcp64Nodes, cfg), lit),
	}
}
