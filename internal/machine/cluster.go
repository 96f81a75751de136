package machine

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/placement"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// PlacementNames lists the placement wire names ParsePlacement accepts, in
// presentation order, with their argument shapes.
func PlacementNames() []string {
	return []string{"striped[:LINEBYTES]", "page-striped[:PAGEBYTES]"}
}

// SchemeNames lists the decision-scheme wire names ParseScheme accepts, in
// presentation order, with their argument shapes.
func SchemeNames() []string {
	return []string{"always-migrate", "always-remote", "distance:N", "history:N", "cached-remote", "hybrid[:N]"}
}

// ParsePlacement builds a placement policy from its wire name. Cluster
// nodes must all compute the same home for every address from the name
// alone, so only the static, stateless policies are admissible here:
//
//	striped[:LINEBYTES]       (default line 64)
//	page-striped[:PAGEBYTES]  (default page 4096)
//
// First-touch is rejected: its page table lives in one process, and two
// nodes binding the same page to different homes would break the
// single-home invariant that gives EM² sequential consistency.
func ParsePlacement(spec string, cores int) (placement.Policy, error) {
	name, arg, hasArg := strings.Cut(spec, ":")
	n := 0
	if hasArg {
		v, err := strconv.Atoi(arg)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("machine: bad placement argument %q (valid placements: %s)",
				spec, strings.Join(PlacementNames(), ", "))
		}
		n = v
	}
	switch name {
	case "striped":
		if n == 0 {
			n = 64
		}
		return placement.NewStriped(n, cores), nil
	case "page-striped":
		if n == 0 {
			n = placement.DefaultPageBytes
		}
		return placement.NewPageStriped(n, cores), nil
	case "first-touch":
		return nil, fmt.Errorf("machine: first-touch placement is per-process state and cannot be replicated across cluster nodes (two nodes could bind the same page to different homes); valid placements: %s",
			strings.Join(PlacementNames(), ", "))
	default:
		return nil, fmt.Errorf("machine: unknown placement %q (valid placements: %s)",
			spec, strings.Join(PlacementNames(), ", "))
	}
}

// ParseScheme builds a migrate-vs-remote decision scheme from its wire
// name: always-migrate, always-remote, distance:N, or history:N. Stateful
// schemes are admissible because all predictor state is per thread and
// ships inside the migrating context (transport.Context.Sched) — no node
// ever needs another node's history.
func ParseScheme(spec string, mesh geom.Mesh) (core.Scheme, error) {
	arg := func(prefix string) (int, error) {
		n, err := strconv.Atoi(strings.TrimPrefix(spec, prefix))
		if err != nil {
			return 0, fmt.Errorf("machine: bad argument in scheme %q (valid schemes: %s)",
				spec, strings.Join(SchemeNames(), ", "))
		}
		return n, nil
	}
	switch {
	case spec == "always-migrate":
		return core.AlwaysMigrate{}, nil
	case spec == "always-remote":
		return core.AlwaysRemote{}, nil
	case strings.HasPrefix(spec, "distance:"):
		n, err := arg("distance:")
		if err != nil {
			return nil, err
		}
		return core.NewDistance(mesh, n), nil
	case strings.HasPrefix(spec, "history:"):
		n, err := arg("history:")
		if err != nil {
			return nil, err
		}
		if n <= 0 {
			return nil, fmt.Errorf("machine: history run threshold must be positive in %q", spec)
		}
		return core.NewHistory(n), nil
	case spec == "cached-remote":
		return core.NewCachedRemote(), nil
	case spec == "hybrid":
		return core.NewHybrid(0), nil
	case strings.HasPrefix(spec, "hybrid:"):
		n, err := arg("hybrid:")
		if err != nil {
			return nil, err
		}
		if n <= 0 {
			return nil, fmt.Errorf("machine: hybrid lease window must be positive in %q", spec)
		}
		return core.NewHybrid(uint64(n)), nil
	default:
		return nil, fmt.Errorf("machine: unknown scheme %q (valid schemes: %s)",
			spec, strings.Join(SchemeNames(), ", "))
	}
}

// NodeOption customizes ServeNode.
type NodeOption func(*nodeOptions)

type nodeOptions struct {
	wireStats io.Writer
}

// WithWireStats makes ServeNode print the node's wire-level traffic
// counters (batches, messages, bytes, coalescing factor) to w after the
// run.
func WithWireStats(w io.Writer) NodeOption {
	return func(o *nodeOptions) { o.wireStats = w }
}

// heartbeatInterval is how often a node reports liveness to the
// coordinator.
const heartbeatInterval = 500 * time.Millisecond

// ServeNode runs one cluster node to completion: listen per the manifest,
// receive the coordinator's LoadSpec, open its thread slots and install
// its initial job if it carries one, acknowledge it (or report the actual
// load failure), execute the owned cores' loops with contexts and remote
// accesses crossing the TCP transport, serve job submissions and
// retirements, heartbeat liveness, report HALTs, stream the collect reply
// in per-core chunks, and exit on shutdown. This is the whole of
// cmd/em2node.
func ServeNode(man transport.Manifest, idx int, opts ...NodeOption) error {
	var opt nodeOptions
	for _, o := range opts {
		o(&opt)
	}
	tn, err := transport.ListenNode(man, idx)
	if err != nil {
		return err
	}
	defer tn.Close()
	if opt.wireStats != nil {
		defer func() {
			s, _ := tn.Sample() //em2:errsink-ok: Node.Sample never fails locally; the MetricsSource signature carries the error for remote sources
			fmt.Fprintf(opt.wireStats, "em2node %d wire: %s\n", idx, stats.NetLine(s.Net))
		}()
	}

	var spec *transport.LoadSpec
	select {
	case spec = <-tn.Loads():
	case <-tn.ShutdownC():
		return nil // coordinator aborted before loading
	}
	// failLoad ships the actual failure message to the coordinator before
	// this process exits: "unknown scheme …" at the driver beats a bare
	// connection death.
	failLoad := func(err error) error {
		if serr := tn.SendLoadAck(transport.JobAck{Node: idx, Err: err.Error()}); serr != nil {
			return fmt.Errorf("%w (and the load ack did not reach the coordinator: %v)", err, serr)
		}
		return err
	}
	cfg, err := ClusterConfig{
		GuestContexts: spec.GuestContexts,
		Quantum:       spec.Quantum,
		Scheme:        spec.Scheme,
		Placement:     spec.Placement,
		LogEvents:     spec.LogEvents,
	}.Resolve(geom.NewMesh(man.W, man.H))
	if err != nil {
		return failLoad(err)
	}
	tn.Prepare(spec.NumThreads)
	part, err := NewPart(cfg, tn)
	if err != nil {
		return failLoad(err)
	}
	// The non-destructive sampling plane: sample requests and heartbeat
	// piggybacks read the part's counters without touching Collect.
	// Installed before Ready, like the job handlers.
	tn.HandleSample(func() transport.Sample {
		s, _ := part.Sample() //em2:errsink-ok: Part.Sample never fails; the MetricsSource signature carries the error for remote sources
		return s
	})
	// Submitted jobs are installed, and finished ones retired, synchronously
	// on the coordinator link's reader.
	tn.HandleJobs(part)
	// A halt that cannot be sent means the coordinator link is already
	// torn down; the coordinator's halt barrier times out and reports it.
	onHalt := func(h transport.HaltMsg) { _ = tn.SendHalt(h) } //em2:errsink-ok: no error path out of the halt callback; link teardown surfaces at the coordinator's barrier
	if err := part.StartServe(spec.NumThreads, onHalt); err != nil {
		return failLoad(err)
	}
	// A closed-loop run's programs and memory image are the load's initial
	// job, installed before Ready opens the data plane to its contexts.
	if spec.Job != nil {
		if err := part.ApplyJob(spec.Job); err != nil {
			part.Stop()
			return failLoad(err)
		}
	}
	tn.Ready() // open the data plane: Prepare'd inboxes + handler are live
	if err := tn.SendLoadAck(transport.JobAck{Node: idx}); err != nil {
		return err
	}
	tn.StartHeartbeat(heartbeatInterval)

	select {
	case <-tn.CollectRequests():
	case <-tn.ShutdownC():
		part.Stop() // coordinator aborted mid-run (timeout, error)
		return nil
	}
	// Stream the post-run state in per-core chunks; wire counters are
	// snapshotted before the stream so they do not count its own traffic,
	// then ride the final Done chunk.
	net := tn.NetStats()
	if err := part.CollectChunked(idx, func(ch transport.CollectChunk) error {
		if ch.Done {
			ch.Net = &net
		}
		return tn.SendCollectChunk(ch)
	}); err != nil {
		return err
	}
	<-tn.ShutdownC()
	part.Stop()
	return nil
}

// HostNodes runs every node of man in this process, one ServeNode
// goroutine each — the em2node code path without a process spawn. The
// returned wait blocks until every node has exited and reports the first
// node's error, by node index.
func HostNodes(man transport.Manifest) (wait func() error) {
	errs := make([]error, len(man.Nodes))
	var wg sync.WaitGroup
	for i := range man.Nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = ServeNode(man, i)
		}()
	}
	return func() error {
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return fmt.Errorf("machine: node %d: %w", i, err)
			}
		}
		return nil
	}
}

// ClusterConfig describes a run by names: Scheme and Placement travel as
// wire names (see ParseScheme/ParsePlacement) and every node resolves
// them itself. Zero values select pure EM² over 64-byte striping with a
// 60 s timeout.
type ClusterConfig struct {
	GuestContexts int
	Quantum       int
	Scheme        string
	Placement     string
	LogEvents     bool
	Timeout       time.Duration
}

// Resolve is the one path from names to a runtime Config: it applies the
// default scheme and placement, parses both for mesh, and validates the
// result. ServeNode, ClusterRun, NewRunner and the serve backends all come
// through here, so the coordinator rejects exactly what a node would.
func (c ClusterConfig) Resolve(mesh geom.Mesh) (Config, error) {
	if c.Scheme == "" {
		c.Scheme = "always-migrate"
	}
	if c.Placement == "" {
		c.Placement = "striped:64"
	}
	cfg := Config{Mesh: mesh, GuestContexts: c.GuestContexts, Quantum: c.Quantum, LogEvents: c.LogEvents}
	var err error
	if cfg.Placement, err = ParsePlacement(c.Placement, mesh.Cores()); err != nil {
		return Config{}, err
	}
	if cfg.Scheme, err = ParseScheme(c.Scheme, mesh); err != nil {
		return Config{}, err
	}
	return cfg, cfg.Validate()
}

// heartbeatSummary renders the coordinator's last-seen heartbeats for a
// timeout diagnostic: which nodes were still alive, and how stale each
// one's last report was. Advisory only — it annotates errors, never
// results.
func heartbeatSummary(co *transport.Coordinator, nodes int) string {
	infos := co.Heartbeats()
	if len(infos) == 0 {
		return fmt.Sprintf("no heartbeats from any of %d nodes", nodes)
	}
	seen := make(map[int]transport.HeartbeatInfo, len(infos))
	for _, hi := range infos {
		seen[hi.Node] = hi
	}
	parts := make([]string, 0, nodes)
	for i := 0; i < nodes; i++ {
		if hi, ok := seen[i]; ok {
			//em2:wallclock-ok: timeout diagnostics annotate real elapsed time; never feeds results
			parts = append(parts, fmt.Sprintf("node %d seq %d %.1fs ago", i, hi.Seq, time.Since(hi.At).Seconds()))
		} else {
			parts = append(parts, fmt.Sprintf("node %d silent", i))
		}
	}
	return "last heartbeats: " + strings.Join(parts, ", ")
}

// ClusterRun is the spec for one cluster run. Manifest names the node
// processes, Config the run parameters, Threads and Mem the program and
// initial image; Sink optionally receives the run's telemetry.
type ClusterRun struct {
	Manifest transport.Manifest
	Config   ClusterConfig
	// Threads is the full cluster-wide thread list; thread t starts at
	// core t mod cores, as in Machine.Run.
	Threads []ThreadSpec
	// Mem is the initial memory image, broadcast in the LoadSpec's initial
	// job (each node preloads the addresses it homes).
	Mem map[uint32]uint32
	// Sink, when set, receives one deterministic end-of-run telemetry
	// sample: the collected per-core counters with quiescent gauges,
	// stamped at the slowest thread's halt cycle. A closed-loop run has no
	// virtual clock ticking between injection and the halt barrier, so one
	// sample is all the determinism contract allows; open-loop serving
	// (serve.Config.Sink) is where periodic virtual-time series come from.
	Sink telemetry.Sink
}

// Run drives an already-listening cluster through one run: load, inject,
// await HALTs, collect, shut down. The node processes (ServeNode /
// cmd/em2node) must be starting or started on the manifest's addresses;
// dialing retries until Config.Timeout.
func (r ClusterRun) Run() (*Result, error) {
	if err := r.Manifest.Validate(); err != nil {
		return nil, err
	}
	// Fail fast on the coordinator for anything a node would reject: the
	// exact Config every node will resolve from the spec, and the run's
	// initial job every node will install.
	if _, err := r.Config.Resolve(geom.NewMesh(r.Manifest.W, r.Manifest.H)); err != nil {
		return nil, err
	}
	job, err := initialJob(r.Threads, r.Mem)
	if err != nil {
		return nil, err
	}
	return r.run(job)
}

// initialJob packs a closed-loop run's threads as the load's initial job:
// job 0 over slots 0..n-1.
func initialJob(threads []ThreadSpec, mem map[uint32]uint32) (*transport.JobSpec, error) {
	slots := make([]int, len(threads))
	for t := range slots {
		slots[t] = t
	}
	return BuildJob(0, slots, threads, mem)
}

// run is Run after the coordinator-side checks, with the initial job
// already built.
func (r ClusterRun) run(job *transport.JobSpec) (*Result, error) {
	man, cfg, threads := r.Manifest, r.Config, r.Threads
	if cfg.Timeout == 0 {
		cfg.Timeout = 60 * time.Second
	}
	co, err := transport.DialCluster(man, cfg.Timeout)
	if err != nil {
		return nil, err
	}
	defer co.Close()

	// The ack barrier turns a node's load failure into its actual error
	// message and guarantees every node installed the programs and opened
	// its data plane before injection.
	if err := co.Load(&transport.LoadSpec{
		GuestContexts: cfg.GuestContexts,
		Quantum:       cfg.Quantum,
		Scheme:        cfg.Scheme,
		Placement:     cfg.Placement,
		LogEvents:     cfg.LogEvents,
		NumThreads:    len(threads),
		Job:           job,
	}, cfg.Timeout); err != nil {
		return nil, err
	}
	res, maxCycles, err := runClosed(co, threads, man.Cores(), cfg.Timeout)
	if errors.Is(err, errHaltTimeout) {
		err = fmt.Errorf("%w (%s)", err, heartbeatSummary(co, len(man.Nodes)))
	}
	if err != nil {
		return nil, err
	}
	res.CoordNet = co.NetStats()
	if r.Sink != nil {
		// One deterministic end-of-run sample: the collected counters with
		// quiescent gauges (every thread halted, nothing resident), stamped
		// at the slowest thread's halt cycle. Built entirely from surfaces
		// the differential tests already pin, so enabling the sink changes
		// nothing and the stream matches byte-for-byte across transports.
		s := transport.Sample{
			Cycle:   maxCycles,
			PerCore: res.PerCore,
			Guests:  make([]int64, len(res.PerCore)),
			Words:   int64(len(res.Mem)),
			Events:  int64(len(res.Events)),
		}
		if _, err := telemetry.EmitSample(r.Sink, nil, &s, maxCycles); err != nil {
			return nil, fmt.Errorf("machine: telemetry sink: %w", err)
		}
	}
	return res, nil
}
