package serve

import (
	"fmt"
	"time"

	"repro/internal/geom"
	"repro/internal/machine"
	"repro/internal/transport"
)

// Backend executes admitted jobs on a live machine. The two
// implementations — channel transport in-process, TCP cluster — must be
// observationally identical: same halts, same counters, same events.
type Backend interface {
	// RunJob installs the job in the slot pool, injects its contexts, and
	// returns one halt per slot (indexed by slot) once every thread
	// finished. Follow with Retire before reusing the slots or region.
	RunJob(j *Job, timeout time.Duration) ([]transport.HaltMsg, error)
	// Retire clears the job's slots and reclaims its memory region —
	// deleting the region's shard words and removing (and returning) its
	// event-log entries, which is what keeps a long-running server's
	// footprint bounded by the in-flight window instead of O(jobs). The
	// returned events feed the job's own SC check.
	Retire(j *Job, timeout time.Duration) ([]machine.Event, error)
	// Sample implements transport.MetricsSource over the live machine: a
	// non-destructive snapshot of per-core counters and gauges, mergeable
	// across nodes. At serve's sampling points (arrival-processing
	// boundaries) both backends return identical deterministic fields; only
	// the advisory Net differs.
	Sample() (transport.Sample, error)
	// Drain ends the run and returns the machine's merged post-run state.
	Drain(timeout time.Duration) (*DrainResult, error)
	// Close releases the backend; safe after Drain and on error paths.
	Close()
}

// DrainResult is the machine's post-run state a report is built from.
// With every job retired through Retire, Events must be empty and
// MemWords zero — serve.Run enforces both, so a reclamation leak fails
// the run instead of silently growing the server.
type DrainResult struct {
	Events   []machine.Event
	Counters map[string]int64
	MemWords int // words still held by the machine's shards at drain
}

// machineConfig builds the runtime config both backends validate against.
// GuestContexts is pinned to 0 (unlimited): capacity evictions depend on
// arrival timing between unrelated cores, which would make job latencies
// schedule-dependent and break the byte-identical report guarantee.
func machineConfig(cfg Config) (machine.Config, error) {
	mesh := geom.NewMesh(cfg.W, cfg.H)
	mcfg := machine.Config{Mesh: mesh, Quantum: cfg.Quantum, LogEvents: true}
	var err error
	if mcfg.Placement, err = machine.ParsePlacement(cfg.Placement, mesh.Cores()); err != nil {
		return machine.Config{}, err
	}
	if mcfg.Scheme, err = machine.ParseScheme(cfg.Scheme, mesh); err != nil {
		return machine.Config{}, err
	}
	return mcfg, nil
}

// localBackend serves jobs on an in-process Part over the channel
// transport — the single-machine shape of the server.
type localBackend struct {
	tr      *transport.Local
	part    *machine.Part
	halts   chan transport.HaltMsg
	cores   int
	stopped bool
}

// NewLocalBackend builds the in-process backend: one Part spanning the
// whole mesh, started in serve mode over the workload's slot pool.
func NewLocalBackend(cfg Config) (Backend, error) {
	cfg = cfg.withDefaults()
	mcfg, err := machineConfig(cfg)
	if err != nil {
		return nil, err
	}
	slots, err := slotsFor(cfg.Workload)
	if err != nil {
		return nil, err
	}
	tr := transport.NewLocal(mcfg.Mesh.Cores(), slots)
	part, err := machine.NewPart(mcfg, tr)
	if err != nil {
		return nil, err
	}
	b := &localBackend{tr: tr, part: part, halts: make(chan transport.HaltMsg, slots), cores: mcfg.Mesh.Cores()}
	if err := part.StartServe(slots, func(h transport.HaltMsg) { b.halts <- h }); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *localBackend) RunJob(j *Job, timeout time.Duration) ([]transport.HaltMsg, error) {
	spec, err := machine.BuildJob(j.Index, j.Slots(), j.Threads, j.Mem)
	if err != nil {
		return nil, err
	}
	if err := b.part.ApplyJob(spec); err != nil {
		return nil, err
	}
	if err := machine.Inject(j.Threads, b.cores, b.tr.SendEviction); err != nil {
		return nil, err
	}
	return machine.AwaitHalts(b.halts, nil, len(j.Threads), timeout)
}

func (b *localBackend) Retire(j *Job, _ time.Duration) ([]machine.Event, error) {
	return b.part.RetireJob(j.done()).Events, nil
}

func (b *localBackend) Sample() (transport.Sample, error) {
	return b.part.Sample()
}

func (b *localBackend) Drain(time.Duration) (*DrainResult, error) {
	b.stop()
	coll := b.part.Collect(0)
	return &DrainResult{Events: coll.Events, Counters: coll.Counters, MemWords: len(coll.Mem)}, nil
}

func (b *localBackend) stop() {
	if !b.stopped {
		b.stopped = true
		b.part.Stop()
	}
}

func (b *localBackend) Close() { b.stop() }

// clusterBackend serves jobs on an already-listening TCP cluster through
// the coordinator's job control plane.
type clusterBackend struct {
	co     *transport.Coordinator
	cores  int
	closed bool
}

// NewClusterBackend dials the cluster in the manifest and loads every node
// with an empty slot pool and no initial job. The node processes (machine.ServeNode / cmd/em2node)
// must be starting or started on the manifest's addresses.
func NewClusterBackend(cfg Config, man transport.Manifest) (Backend, error) {
	cfg = cfg.withDefaults()
	if err := man.Validate(); err != nil {
		return nil, err
	}
	if man.W != cfg.W || man.H != cfg.H {
		return nil, fmt.Errorf("serve: manifest mesh %dx%d does not match configured %dx%d", man.W, man.H, cfg.W, cfg.H)
	}
	// Fail fast on the coordinator for anything a node would reject.
	if _, err := machineConfig(cfg); err != nil {
		return nil, err
	}
	slots, err := slotsFor(cfg.Workload)
	if err != nil {
		return nil, err
	}
	co, err := transport.DialCluster(man, cfg.Timeout)
	if err != nil {
		return nil, err
	}
	// The ack barrier surfaces a node's actual load failure here instead
	// of as a bare connection death on the first job.
	err = co.Load(&transport.LoadSpec{
		Quantum:    cfg.Quantum,
		Scheme:     cfg.Scheme,
		Placement:  cfg.Placement,
		LogEvents:  true,
		NumThreads: slots,
	}, cfg.Timeout)
	if err != nil {
		co.Shutdown()
		co.Close()
		return nil, err
	}
	return &clusterBackend{co: co, cores: man.Cores()}, nil
}

func (b *clusterBackend) RunJob(j *Job, timeout time.Duration) ([]transport.HaltMsg, error) {
	spec, err := machine.BuildJob(j.Index, j.Slots(), j.Threads, j.Mem)
	if err != nil {
		return nil, err
	}
	// The ack barrier: every node has installed the job's specs and memory
	// before any context is injected, so a context can never race its own
	// program across nodes.
	if err := b.co.SubmitJob(spec, timeout); err != nil {
		return nil, err
	}
	if err := machine.Inject(j.Threads, b.cores, b.co.InjectEviction); err != nil {
		return nil, err
	}
	if err := b.co.Flush(); err != nil {
		return nil, err
	}
	return machine.AwaitHalts(b.co.Halts(), b.co.Deaths(), len(j.Threads), timeout)
}

func (b *clusterBackend) Retire(j *Job, timeout time.Duration) ([]machine.Event, error) {
	// The retirement barrier: every node cleared the slots and reclaimed
	// the region before the coordinator may reuse either. The merged reply
	// carries the job's events from whichever nodes homed its addresses.
	return b.co.RetireJob(j.done(), timeout)
}

func (b *clusterBackend) Sample() (transport.Sample, error) {
	return b.co.Sample()
}

func (b *clusterBackend) Drain(timeout time.Duration) (*DrainResult, error) {
	reps, err := b.co.Collect(timeout)
	if err != nil {
		return nil, err
	}
	dr := &DrainResult{Counters: make(map[string]int64)}
	for _, rep := range reps {
		dr.Events = append(dr.Events, rep.Events...)
		dr.MemWords += len(rep.Mem)
		//em2:unordered-ok: integer += accumulation is commutative; order cannot matter
		for k, v := range rep.Counters {
			dr.Counters[k] += v
		}
	}
	return dr, nil
}

func (b *clusterBackend) Close() {
	if !b.closed {
		b.closed = true
		b.co.Shutdown()
		b.co.Close()
	}
}
