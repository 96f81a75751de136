package bench

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/machine"
	"repro/internal/placement"
	"repro/internal/transport"
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

// runChannel64 is the single-process reference: the same compiled
// workload on a 64-core channel machine.
func runChannel64(c *wprog.Compiled) (*machine.Result, error) {
	mesh := tcp64Mesh()
	scheme, err := machine.ParseScheme("history:2", mesh)
	if err != nil {
		return nil, err
	}
	m, err := machine.New(machine.Config{
		Mesh:      mesh,
		Placement: placement.NewPageStriped(wprog.PageBytes, mesh.Cores()),
		Scheme:    scheme,
		Quantum:   16,
	}, len(c.Threads))
	if err != nil {
		return nil, err
	}
	for _, pg := range c.Pages {
		m.Preload(pg.Base, c.Mem[pg.Base], pg.Home)
	}
	res, err := m.Run(c.Threads)
	if err != nil {
		return nil, err
	}
	lit := c.Litmus()
	if lit.Check != nil {
		if err := lit.Check(m.Read, res.FinalRegs); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runTCP64 executes the compiled workload on an 8-node TCP-loopback
// cluster (node endpoints hosted in-process): real sockets, real batch
// frames, real 8-way control fan-out.
func runTCP64(c *wprog.Compiled) (*machine.ClusterResult, error) {
	mesh := tcp64Mesh()
	man, err := transport.LocalManifest(tcp64Nodes, mesh.Width(), mesh.Height())
	if err != nil {
		return nil, err
	}
	wait := machine.HostNodes(man)
	res, err := machine.ClusterRun{
		Manifest: man,
		Config: machine.ClusterConfig{
			Quantum:   16,
			Scheme:    "history:2",
			Placement: fmt.Sprintf("page-striped:%d", wprog.PageBytes),
			Timeout:   120 * time.Second,
		},
		Threads: c.Threads,
		Mem:     c.Mem,
	}.Run()
	if nerr := wait(); err == nil {
		err = nerr
	}
	if err != nil {
		return nil, err
	}
	lit := c.Litmus()
	if lit.Check != nil {
		read := func(a uint32) uint32 { return res.Mem[a] }
		if err := lit.Check(read, res.FinalRegs); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// tcp64Specs returns the paper-scale benchmark pair. Neither is gated:
// they are trajectory entries, recording the cluster's overhead against
// the single-process reference and the coordinator's O(nodes) write cost.
func tcp64Specs() []Spec {
	return []Spec{
		{
			Name: "machine/channel64/ocean",
			Run: func(b *testing.B, short bool, side *Side) {
				c := compiled64(short)
				var msgs, flits int64
				var last *machine.Result
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := runChannel64(c)
					if err != nil {
						side.Fail(b, err)
					}
					msgs += wireMsgs(res)
					flits += res.ContextFlits
					last = res
				}
				reportRates(b, msgs, flits)
				side.PerCore = last.PerCore
			},
		},
		{
			Name: "machine/tcp64/ocean",
			Run: func(b *testing.B, short bool, side *Side) {
				c := compiled64(short)
				var msgs, flits int64
				var net, coord transport.NetStats
				var last *machine.ClusterResult
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := runTCP64(c)
					if err != nil {
						side.Fail(b, err)
					}
					msgs += wireMsgs(&res.Result)
					flits += res.ContextFlits
					for _, s := range res.NodeNet {
						net = net.Add(s)
					}
					coord = coord.Add(res.CoordNet)
					last = res
				}
				reportRates(b, msgs, flits)
				// The fan-in evidence: node-plane coalescing and the
				// coordinator's per-run write count — O(nodes) control
				// writes driving 64 cores, not O(threads) round trips.
				b.ReportMetric(net.MsgsPerBatch(), "msgs/batch")
				b.ReportMetric(float64(net.BatchesSent)/float64(b.N), "writes/op")
				b.ReportMetric(float64(coord.BatchesSent)/float64(b.N), "coord_writes/op")
				b.ReportMetric(coord.MsgsPerBatch(), "coord_msgs/batch")
				side.PerCore = last.PerCore
				agg := net
				side.Net = &agg
			},
		},
	}
}
