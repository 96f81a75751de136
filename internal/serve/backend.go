package serve

import (
	"fmt"
	"time"

	"repro/internal/geom"
	"repro/internal/machine"
	"repro/internal/transport"
)

// Backend executes admitted jobs on a live machine. Its one
// implementation drives a machine.Plane, so the in-process channel
// transport and a TCP cluster are observationally identical: same halts,
// same counters, same events.
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
	// boundaries) both transports return identical deterministic fields;
	// only the advisory Net differs.
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

// machineConfig builds the runtime config both transports validate against.
// GuestContexts is pinned to 0 (unlimited): capacity evictions depend on
// arrival timing between unrelated cores, which would make job latencies
// schedule-dependent and break the byte-identical report guarantee.
func machineConfig(cfg Config) (machine.Config, error) {
	return machine.ClusterConfig{Quantum: cfg.Quantum, Scheme: cfg.Scheme, Placement: cfg.Placement, LogEvents: true}.
		Resolve(geom.NewMesh(cfg.W, cfg.H))
}

// backend serves jobs through a machine's control plane, whose Sample
// and Close it shares.
type backend struct {
	machine.Plane
	cores int
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
	pl, err := machine.NewLocalPlane(mcfg, slots)
	if err != nil {
		return nil, err
	}
	return &backend{Plane: pl, cores: mcfg.Mesh.Cores()}, nil
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
		co.Close()
		return nil, err
	}
	return &backend{Plane: co, cores: man.Cores()}, nil
}

func (b *backend) RunJob(j *Job, timeout time.Duration) ([]transport.HaltMsg, error) {
	spec, err := machine.BuildJob(j.Index, j.Slots(), j.Threads, j.Mem)
	if err != nil {
		return nil, err
	}
	// The ack barrier: every part has installed the job's specs and memory
	// before any context is injected, so a context can never race its own
	// program across nodes.
	if err := b.SubmitJob(spec, timeout); err != nil {
		return nil, err
	}
	return machine.RunThreads(b.Plane, j.Threads, b.cores, timeout)
}

func (b *backend) Retire(j *Job, timeout time.Duration) ([]machine.Event, error) {
	// The retirement barrier: every part cleared the slots and reclaimed
	// the region before the slots or region may be reused. The merged reply
	// carries the job's events from whichever parts homed its addresses.
	return b.RetireJob(j.done(), timeout)
}

func (b *backend) Drain(timeout time.Duration) (*DrainResult, error) {
	reps, err := b.Collect(timeout)
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
