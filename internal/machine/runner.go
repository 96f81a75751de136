package machine

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/transport"
)

// Runner is the one closed-loop run driver for both transports: it runs a
// Litmus on the in-process channel machine (nodes == 0) or on a
// nodes-wide TCP-loopback cluster whose nodes it hosts in this process,
// then checks the outcome the same way on either. The batteries that
// prove the two transports behave as one machine (m3/m4/m5, em2bench)
// drive every run through here.
type Runner struct {
	nodes int
	names ClusterConfig // what each node resolves
	cfg   Config        // the same, resolved once
}

// NewRunner resolves and validates cfg's scheme and placement names for
// mesh once, for every run: each policy ParseScheme and ParsePlacement
// return is stateless (per-thread predictor state migrates with the
// context), so runs can share them.
func NewRunner(mesh geom.Mesh, nodes int, cfg ClusterConfig) (*Runner, error) {
	if nodes < 0 {
		return nil, fmt.Errorf("machine: negative node count %d", nodes)
	}
	resolved, err := cfg.Resolve(mesh)
	if err != nil {
		return nil, err
	}
	return &Runner{nodes: nodes, names: cfg, cfg: resolved}, nil
}

// Run executes lit once: preloads lit.Mem, runs lit.Threads to HALT,
// SC-checks the recorded execution from lit.Mem when LogEvents is set, and
// runs lit.Check against the final memory image. Errors name the
// transport.
func (r *Runner) Run(lit Litmus) (*Result, error) {
	where := "channel"
	run := r.runChannel
	if r.nodes > 0 {
		where, run = "tcp", r.runTCP
	}
	res, err := run(lit)
	if err == nil && r.cfg.LogEvents {
		err = CheckSCFrom(lit.Mem, res.Events)
	}
	if err == nil && lit.Check != nil {
		mem := res.Mem
		err = lit.Check(func(a uint32) uint32 { return mem[a] }, res.FinalRegs)
	}
	if err != nil {
		return nil, fmt.Errorf("%s transport: %w", where, err)
	}
	return res, nil
}

func (r *Runner) runChannel(lit Litmus) (*Result, error) {
	m, err := New(r.cfg, len(lit.Threads))
	if err != nil {
		return nil, err
	}
	//em2:unordered-ok: Preload writes each address into its home shard's map; the final image is order-independent
	for a, v := range lit.Mem {
		m.Preload(a, v, 0)
	}
	return m.Run(lit.Threads)
}

func (r *Runner) runTCP(lit Litmus) (*Result, error) {
	// The initial job is built before any node is hosted: a node that is
	// never dialed waits for its coordinator forever, so a run the
	// coordinator rejects must not start one.
	job, err := initialJob(lit.Threads, lit.Mem)
	if err != nil {
		return nil, err
	}
	mesh := r.cfg.Mesh
	man, err := transport.LocalManifest(r.nodes, mesh.Width(), mesh.Height())
	if err != nil {
		return nil, err
	}
	wait := HostNodes(man)
	res, err := ClusterRun{Manifest: man, Config: r.names, Threads: lit.Threads, Mem: lit.Mem}.run(job)
	if nerr := wait(); err == nil {
		err = nerr
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}
