// Package machine is a concurrent implementation of the Execution Migration
// Machine: cores execute user programs written in the internal/isa
// instruction set with their architectural context (PC + register file)
// shipped between cores whenever they touch memory homed elsewhere.
//
// The execution engine is written against the transport abstraction in
// internal/transport, so the same core loop runs in two shapes:
//
//   - In one process (Machine): cores are goroutines and the migration and
//     eviction virtual networks are Go channels (transport.Local).
//   - Across processes (ServeNode/ClusterRun): each node process runs the
//     cores of its manifest entry, and contexts cross real TCP sockets in
//     their fixed wire encoding (transport.Node).
//
// The runtime preserves the paper's structural guarantees in both shapes:
//
//   - Single home: every word lives in exactly one per-core shard, and every
//     access — local, migrated-to, or remote — is serialized at that shard.
//     Sequential consistency follows, and the SC checker in this package
//     verifies it on recorded executions (experiment M1).
//
//   - Deadlock-free migration: each thread has a reserved native context;
//     evictions travel on a dedicated channel (the paper's separate virtual
//     network) whose capacity covers every thread that could ever be evicted
//     toward that core, so an eviction send never blocks (experiment M2).
//     Over TCP the channel capacity becomes a wire credit: inbound readers
//     always find inbox space, sockets always drain (DESIGN.md §6).
package machine

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/isa"
	"repro/internal/placement"
	"repro/internal/transport"
)

// Config describes the runtime.
type Config struct {
	Mesh          geom.Mesh
	GuestContexts int              // guest contexts per core; 0 = unlimited
	Placement     placement.Policy // wrapped with a lock internally
	Scheme        core.Scheme      // nil = pure EM² (always migrate); NewPredictor must be safe for concurrent use (predictor state is per thread and migrates with the context)
	Quantum       int              // instructions per scheduling slice (default 64)
	LogEvents     bool             // record memory events for the SC checker
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Mesh.Cores() <= 0 {
		return fmt.Errorf("machine: empty mesh")
	}
	if c.Placement == nil {
		return fmt.Errorf("machine: nil placement")
	}
	if c.GuestContexts < 0 {
		return fmt.Errorf("machine: negative guest contexts")
	}
	if c.Quantum < 0 {
		return fmt.Errorf("machine: negative quantum")
	}
	return nil
}

func defaultScheme() core.Scheme { return core.AlwaysMigrate{} }

// ThreadSpec describes one thread to run.
type ThreadSpec struct {
	Program []isa.Instr
	Regs    map[int]uint32 // initial register values
}

// checkThread is the one validation rule for a thread spec, applied on
// the coordinator (BuildJob) and at slot installation (SetThread): a
// non-empty program and initial values only for writable registers.
func checkThread(spec ThreadSpec) error {
	if len(spec.Program) == 0 {
		return errors.New("empty program")
	}
	// Sorted so a spec with several bad registers always reports the same
	// one.
	for _, r := range slices.Sorted(maps.Keys(spec.Regs)) {
		if r <= 0 || r >= isa.NumRegs {
			return fmt.Errorf("bad initial register r%d", r)
		}
	}
	return nil
}

// Result aggregates a run.
type Result struct {
	Instructions int64
	Migrations   int64
	Evictions    int64
	RemoteReads  int64
	RemoteWrites int64
	LocalOps     int64
	ContextFlits int64 // flits of context wire (incl. predictor state) shipped
	LeaseHits    int64 // remote reads served from a valid lease (no shard op)
	LeaseMisses  int64 // lease-requesting remote reads (also counted in RemoteReads)
	LeaseInvals  int64 // leases dropped by the holder's own write
	Overcommits  int64 // guest acceptances beyond GuestContexts (see CoreMetrics)

	// PerCore breaks the counters down by core, ascending by core id.
	PerCore []transport.CoreMetrics

	// FinalRegs[t] is thread t's register file at HALT.
	FinalRegs [][isa.NumRegs]uint32
	// Events is the merged memory-event log (LogEvents only), suitable for
	// CheckSC.
	Events []Event
	// Mem is the final memory image: every word any shard holds.
	Mem map[uint32]uint32

	// A cluster run also reports each node's counters and wire traffic,
	// index-aligned by node, and the coordinator's own wire traffic (its
	// send side shows the injection batching: a whole run's initial
	// contexts reach each node in one write). Empty on a channel run.
	NodeCounters []map[string]int64
	NodeNet      []transport.NetStats
	CoordNet     transport.NetStats
}

// addCounters accumulates one part's collected counter map into r.
func (r *Result) addCounters(c map[string]int64) {
	r.Instructions += c["instructions"]
	r.Migrations += c["migrations"]
	r.Evictions += c["evictions"]
	r.RemoteReads += c["remote_reads"]
	r.RemoteWrites += c["remote_writes"]
	r.LocalOps += c["local_ops"]
	r.ContextFlits += c["context_flits"]
	r.LeaseHits += c["lease_hits"]
	r.LeaseMisses += c["lease_misses"]
	r.LeaseInvals += c["lease_invals"]
	r.Overcommits += c["overcommits"]
}

// Machine is a runnable in-process EM² instance: one Part spanning every
// core over the channel transport. Create with New, run with Run.
type Machine struct {
	cfg        Config
	numThreads int
	tr         *transport.Local
	part       *Part
	ran        bool
}

// New builds a machine for the given thread count (the count sizes the
// virtual-network inboxes, which is what makes eviction sends safe).
func New(cfg Config, numThreads int) (*Machine, error) {
	if numThreads <= 0 {
		return nil, fmt.Errorf("machine: need at least one thread")
	}
	tr := transport.NewLocal(cfg.Mesh.Cores(), numThreads)
	part, err := NewPart(cfg, tr) // NewPart validates cfg
	if err != nil {
		return nil, err
	}
	return &Machine{
		cfg:        cfg,
		numThreads: numThreads,
		tr:         tr,
		part:       part,
	}, nil
}

// Preload stores a word at addr before the run, binding the page to `by`
// under first-touch placements — the runtime equivalent of the parallel
// initialization phase of the trace workloads.
func (m *Machine) Preload(addr uint32, value uint32, by geom.CoreID) {
	m.part.Preload(addr, value, by)
}

// Read returns the current word at addr without logging an event, for
// inspecting results after a run.
func (m *Machine) Read(addr uint32) uint32 {
	v, _ := m.part.Peek(addr)
	return v
}

// Run executes the threads to completion and returns aggregate results.
// Thread t starts at core t mod cores. A machine runs once.
func (m *Machine) Run(threads []ThreadSpec) (*Result, error) {
	if len(threads) == 0 {
		return nil, fmt.Errorf("machine: no threads")
	}
	if len(threads) > m.numThreads {
		return nil, fmt.Errorf("machine: %d threads on a machine sized for %d", len(threads), m.numThreads)
	}
	if m.ran {
		return nil, fmt.Errorf("machine: Run called twice")
	}

	// A machine runs once, even when its threads are rejected.
	m.ran = true
	halts := make(chan transport.HaltMsg, len(threads))
	if err := m.part.Start(threads, func(h transport.HaltMsg) { halts <- h }); err != nil {
		return nil, err
	}
	// The in-process eviction inbox is sized for every thread, so the
	// injection cannot fail.
	_ = Inject(threads, m.cfg.Mesh.Cores(), m.tr.SendEviction) //em2:errsink-ok: local eviction send is infallible by inbox sizing
	hs, err := AwaitHalts(halts, nil, len(threads), 0)
	m.part.Stop()
	if err != nil {
		return nil, err
	}

	coll := m.part.Collect(0)
	res := &Result{PerCore: coll.PerCore, FinalRegs: make([][isa.NumRegs]uint32, len(threads)), Mem: coll.Mem}
	res.addCounters(coll.Counters)
	for t, h := range hs {
		res.FinalRegs[t] = h.Regs
	}
	if m.cfg.LogEvents {
		res.Events = coll.Events
	}
	return res, nil
}

// Inject places every thread's initial context at its native core —
// thread t at core t mod cores — through send on the eviction network,
// where a native arrival is always accepted. Every way of running a
// program (Machine.Run, ClusterRun.Run, both serve backends) starts its
// threads here.
func Inject(threads []ThreadSpec, cores int, send func(geom.CoreID, transport.Context) error) error {
	for t := range threads {
		ctx := transport.Context{Thread: int32(t), Native: int32(t % cores)}
		//em2:unordered-ok: each register lands in its own array slot; the filled Regs array is order-independent
		for r, v := range threads[t].Regs {
			ctx.Arch.Regs[r] = v
		}
		if err := send(geom.CoreID(t%cores), ctx); err != nil {
			return err
		}
	}
	return nil
}

// errHaltTimeout marks an AwaitHalts that ran out of time, so a cluster
// driver can annotate it with the nodes' last heartbeats.
var errHaltTimeout = errors.New("machine: timed out")

// AwaitHalts gathers one HALT for each of threads 0..n-1 from halts and
// returns them indexed by thread. It tracks exactly which threads halted:
// a halt counter alone would let a duplicate (or fabricated) report for
// one thread mask another that never finished, completing the run with
// garbage registers. deaths (nil in process) fails the wait as soon as a
// node is lost — every context and shard it held is gone — instead of
// letting the run bleed out into its timeout; timeout <= 0 waits forever.
func AwaitHalts(halts <-chan transport.HaltMsg, deaths <-chan error, n int, timeout time.Duration) ([]transport.HaltMsg, error) {
	var expired <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		expired = timer.C
	}
	out := make([]transport.HaltMsg, n)
	for t := range out {
		out[t].Thread = -1 // not halted yet
	}
	for got := 0; got < n; got++ {
		select {
		case h, ok := <-halts:
			switch {
			case !ok:
				return nil, fmt.Errorf("machine: halt channel closed with %d of %d threads halted", got, n)
			case h.Thread < 0 || h.Thread >= n:
				return nil, fmt.Errorf("machine: halt report for unknown thread %d of %d", h.Thread, n)
			case out[h.Thread].Thread >= 0:
				return nil, fmt.Errorf("machine: duplicate halt report for thread %d", h.Thread)
			}
			out[h.Thread] = h
		case err := <-deaths:
			return nil, fmt.Errorf("machine: cluster run failed with %d of %d threads halted: %v", got, n, err)
		case <-expired:
			return nil, fmt.Errorf("%w with %d of %d threads halted", errHaltTimeout, got, n)
		}
	}
	return out, nil
}
