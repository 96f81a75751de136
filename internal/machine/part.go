package machine

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/noc"
	"repro/internal/placement"
	"repro/internal/stats"
	"repro/internal/transport"
)

// lockedPolicy makes any placement.Policy safe for concurrent Touch.
type lockedPolicy struct {
	mu sync.Mutex
	p  placement.Policy
}

func (l *lockedPolicy) touch(a cache.Addr, by geom.CoreID) geom.CoreID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.p.Touch(a, by)
}

// peek resolves a's current home without binding: a read-only lookup for
// inspection APIs, which must never perturb a dynamic placement.
func (l *lockedPolicy) peek(a cache.Addr) (geom.CoreID, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.p.HomeOf(a)
}

// coreCounters is one core's runtime metrics. Each counter is written only
// by its core's own goroutine, so the atomics are uncontended; they exist
// so Collect can read a consistent snapshot from another goroutine.
type coreCounters struct {
	instructions atomic.Int64
	localOps     atomic.Int64
	remoteReads  atomic.Int64
	remoteWrites atomic.Int64
	migrations   atomic.Int64
	evictions    atomic.Int64
	contextFlits atomic.Int64
	leaseHits    atomic.Int64
	leaseMisses  atomic.Int64
	leaseInvals  atomic.Int64
	overcommits  atomic.Int64
	// guests mirrors coreNode.guests as a gauge the sampling path can read
	// from another goroutine. Not part of CoreMetrics (it is a gauge, not a
	// counter) — Sample carries it separately, and it must read zero
	// whenever the machine is quiescent.
	guests atomic.Int64
}

// metrics snapshots the counters for the Collect control plane.
func (c *coreCounters) metrics(core geom.CoreID) transport.CoreMetrics {
	return transport.CoreMetrics{
		Core:         core,
		Instructions: c.instructions.Load(),
		LocalOps:     c.localOps.Load(),
		RemoteReads:  c.remoteReads.Load(),
		RemoteWrites: c.remoteWrites.Load(),
		Migrations:   c.migrations.Load(),
		Evictions:    c.evictions.Load(),
		ContextFlits: c.contextFlits.Load(),
		LeaseHits:    c.leaseHits.Load(),
		LeaseMisses:  c.leaseMisses.Load(),
		LeaseInvals:  c.leaseInvals.Load(),
		Overcommits:  c.overcommits.Load(),
	}
}

// wireNoC is the link model used to express shipped context bytes as flits
// (the same default link parameters the §3 cost model charges).
var wireNoC = noc.DefaultConfig()

// wireFlits converts a context wire byte count to flits.
func wireFlits(bytes int) int64 { return int64(wireNoC.Flits(bytes * 8)) }

// contextFlits is the wire footprint of one shipped context — the single
// formula behind the runtime counters and ContextFlitsFor, so the M3
// prediction cannot drift from what the cores actually count.
func contextFlits(w transport.Context) int64 {
	return wireFlits(transport.ContextWireBytes + len(w.Sched))
}

// Part runs the cores a transport endpoint owns: their execution loops,
// their shards, and the memory handler that serves remote accesses to
// those shards. The whole machine is one Part over a transport.Local; a
// cluster is one Part per node process over transport.Node endpoints, all
// loaded with the same programs (code is replicated, data is not).
type Part struct {
	cfg   Config
	tr    transport.Transport
	place *lockedPolicy
	// shards is indexed by core id — the hottest lookup in the machine —
	// with nil entries for cores other endpoints own.
	shards []*shard
	// ctr is indexed by core id; only owned cores' slots are ever written.
	ctr   []coreCounters
	nodes []*coreNode
	// nodeOf is indexed by core id and routes inbound lease write-updates
	// to the owning core's lease registry. Atomic because the transport's
	// reader goroutine may consult it while start() is still publishing
	// nodes (FrameLeaseInval waits for Ready, but the Local transport has
	// no such gate).
	nodeOf []atomic.Pointer[coreNode]
	// leaseWindow is the scheme's lease validity window when the scheme
	// caches remote reads (core.Leaser); 0 for every other scheme.
	leaseWindow uint64
	// specs is the per-slot thread table. Slots are atomic pointers because
	// serve mode rewrites them between jobs (SetThread/ClearThreads) while
	// the core goroutines are live; the atomics make the handoff visible and
	// race-detector clean. The serve protocol guarantees a slot is never
	// rewritten while one of its contexts is resident or in flight (the
	// JobAck barrier orders installation before injection; a halt report
	// orders completion before reuse).
	specs    []atomic.Pointer[ThreadSpec]
	onHalt   func(transport.HaltMsg)
	done     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewPart builds the part for the cores tr owns and installs its memory
// handler on the transport. Call Preload as needed, then Start.
func NewPart(cfg Config, tr transport.Transport) (*Part, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Mesh.Cores() != tr.Cores() {
		return nil, fmt.Errorf("machine: mesh has %d cores, transport %d", cfg.Mesh.Cores(), tr.Cores())
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = 64
	}
	if cfg.Scheme == nil {
		cfg.Scheme = defaultScheme()
	}
	// The runtime may re-issue Decide for one access after an eviction, so
	// only schemes with pure Decide are admissible; Fixed consumes its
	// replay sequence on every call and exists for trace replay only.
	if _, replay := cfg.Scheme.(*core.Fixed); replay {
		return nil, fmt.Errorf("machine: replay scheme %q cannot run in the concurrent runtime (its Decide consumes state; use a predictive scheme)", cfg.Scheme.Name())
	}
	if n := cfg.Scheme.NewPredictor(0).StateLen(); n > transport.MaxSchedBytes {
		return nil, fmt.Errorf("machine: scheme %q carries %d bytes of predictor state, above the %d-byte wire field",
			cfg.Scheme.Name(), n, transport.MaxSchedBytes)
	}
	var leaseWindow uint64
	if lz, ok := cfg.Scheme.(core.Leaser); ok {
		leaseWindow = lz.LeaseWindow()
		// The grant request carries the window in MemRequest.Lease (u16),
		// and zero there means "no grant".
		if leaseWindow == 0 || leaseWindow > 1<<16-1 {
			return nil, fmt.Errorf("machine: scheme %q lease window %d outside [1, %d]",
				cfg.Scheme.Name(), leaseWindow, 1<<16-1)
		}
	}
	p := &Part{
		cfg:         cfg,
		tr:          tr,
		place:       &lockedPolicy{p: cfg.Placement},
		shards:      make([]*shard, tr.Cores()),
		ctr:         make([]coreCounters, tr.Cores()),
		nodeOf:      make([]atomic.Pointer[coreNode], tr.Cores()),
		leaseWindow: leaseWindow,
		done:        make(chan struct{}),
	}
	for _, id := range tr.Owned() {
		p.shards[id] = newShard(id, cfg.LogEvents)
	}
	tr.HandleMem(func(core geom.CoreID, req transport.MemRequest) transport.MemReply {
		if int(core) < 0 || int(core) >= len(p.shards) || p.shards[core] == nil {
			panic(fmt.Sprintf("machine: memory request for core %d not owned by this part", core))
		}
		rep, invals := p.shards[core].apply(req)
		// The shard lock is released; ship the write-updates now. A failed
		// send means the holder's connection is dying — the update is
		// advisory (holders expire on their own virtual clocks), so the
		// write itself must not fail with it.
		for _, inv := range invals {
			tr.SendLeaseInval(inv) //em2:errsink-ok: advisory update; a dead link surfaces through the data plane
		}
		return rep
	})
	tr.HandleLeaseInval(func(inv transport.LeaseInval) {
		if int(inv.Dst) < 0 || int(inv.Dst) >= len(p.nodeOf) {
			return
		}
		if n := p.nodeOf[inv.Dst].Load(); n != nil {
			n.applyLeaseUpdate(inv)
		}
	})
	return p, nil
}

// Preload stores a word at addr before the run if this part owns addr's
// home, binding the page to `by` under dynamic placements. Safe to call on
// every part of a cluster with the full image: each keeps only its slice.
func (p *Part) Preload(addr uint32, value uint32, by geom.CoreID) {
	home := p.place.touch(cache.Addr(addr), by)
	if s := p.shards[home]; s != nil {
		s.apply(transport.MemRequest{Thread: -1, Op: transport.OpWrite, Addr: addr, Arg: value})
	}
}

// Peek returns the current word at addr and whether this part homes it.
// The home lookup is read-only: peeking an address no thread has touched
// must not bind its page (a dynamic placement would otherwise home it at
// core 0 as a side effect of inspection), so an unbound address reports
// not-homed.
func (p *Part) Peek(addr uint32) (uint32, bool) {
	home, ok := p.place.peek(cache.Addr(addr))
	if !ok {
		return 0, false
	}
	if s := p.shards[home]; s != nil {
		return s.peek(addr), true
	}
	return 0, false
}

// Start runs a closed-loop program: StartServe over one slot per thread,
// then every thread installed in its slot through SetThread, the single
// validation authority for thread specs. threads is the full cluster-wide
// thread list (any thread can migrate in); onHalt fires on the core where
// a thread executes HALT, with its final register file. On error the part
// is stopped.
func (p *Part) Start(threads []ThreadSpec, onHalt func(transport.HaltMsg)) error {
	if err := p.StartServe(len(threads), onHalt); err != nil {
		return err
	}
	specs := slices.Clone(threads)
	for t := range specs {
		if err := p.SetThread(t, &specs[t]); err != nil {
			p.Stop()
			return err
		}
	}
	return nil
}

// StartServe spawns the core loops over a pool of numSlots empty thread
// slots: programs arrive later, per job, through SetThread. A context for
// a slot whose spec has not been installed is protocol corruption (the
// serve submit/ack barrier exists to prevent it) and panics in fromWire.
func (p *Part) StartServe(numSlots int, onHalt func(transport.HaltMsg)) error {
	if numSlots <= 0 {
		return fmt.Errorf("machine: need at least one thread slot")
	}
	p.specs = make([]atomic.Pointer[ThreadSpec], numSlots)
	p.onHalt = onHalt
	for _, id := range p.tr.Owned() {
		n := &coreNode{
			id:      id,
			p:       p,
			ctr:     &p.ctr[id],
			migIn:   p.tr.MigrationIn(id),
			evictIn: p.tr.EvictionIn(id),
		}
		p.nodes = append(p.nodes, n)
		p.nodeOf[id].Store(n)
		p.wg.Add(1)
		go n.loop()
	}
	return nil
}

// Stop winds the core loops down; resident contexts finish their current
// quantum first, then every core exits — including cores whose contexts
// would never halt on their own (an abort or serve drain).
func (p *Part) Stop() {
	p.abort()
	p.wg.Wait()
}

// abort signals every core loop to exit without waiting for them. A core
// whose transport died calls it (coreNode.flush): work produced after the
// wire is gone can never leave the machine, so the whole part parks
// instead of spinning until external teardown. Idempotent, so the abort
// and a later Stop compose.
func (p *Part) abort() {
	p.stopOnce.Do(func() { close(p.done) })
}

// SetThread installs spec in a thread slot; the part keeps the pointer, so
// the caller must not modify *spec afterwards. The caller must guarantee
// no context of the slot is resident or in flight (the submit/ack and
// halt protocol provides exactly that ordering).
func (p *Part) SetThread(slot int, spec *ThreadSpec) error {
	if slot < 0 || slot >= len(p.specs) {
		return fmt.Errorf("machine: thread slot %d outside the %d-slot pool", slot, len(p.specs))
	}
	if err := checkThread(*spec); err != nil {
		return fmt.Errorf("machine: slot %d: %v", slot, err)
	}
	p.specs[slot].Store(spec)
	return nil
}

// ClearThreads retires serve slots after their job completed: a stray late
// context for a cleared slot fails loudly instead of executing a stale
// program.
func (p *Part) ClearThreads(slots []int) {
	for _, s := range slots {
		if s >= 0 && s < len(p.specs) {
			p.specs[s].Store(nil)
		}
	}
}

// PerCoreMetrics snapshots the runtime counters of this part's owned
// cores, ascending by core id.
func (p *Part) PerCoreMetrics() []transport.CoreMetrics {
	out := make([]transport.CoreMetrics, 0, len(p.tr.Owned()))
	for _, id := range p.tr.Owned() {
		out = append(out, p.ctr[id].metrics(id))
	}
	return out
}

// SampleInto fills s with a non-destructive snapshot of this part's
// metrics: per-core counters and guest gauges (ascending by core id) plus
// the summed shard footprint. Unlike Collect it copies no memory and no
// events — one atomic load per counter, one short lock per shard — so it
// is cheap enough to take periodically while the machine runs. The slices
// are reused via append(x[:0], ...), making repeated samples into the same
// Sample allocation-free (the telemetry hot path; gated in bench).
// s.Cycle and s.Net are left untouched: the caller owns the virtual-time
// stamp and the transport owns the wire counters.
func (p *Part) SampleInto(s *transport.Sample) {
	s.PerCore = s.PerCore[:0]
	s.Guests = s.Guests[:0]
	s.Words, s.Events = 0, 0
	for _, id := range p.tr.Owned() {
		s.PerCore = append(s.PerCore, p.ctr[id].metrics(id))
		s.Guests = append(s.Guests, p.ctr[id].guests.Load())
		w, e := p.shards[id].gauges()
		s.Words += w
		s.Events += e
	}
}

// Sample implements transport.MetricsSource for an in-process part.
func (p *Part) Sample() (transport.Sample, error) {
	var s transport.Sample
	p.SampleInto(&s)
	return s, nil
}

// Collect returns this part's post-run state: aggregate and per-core
// counters, the event logs of its shards in core order, and its slice of
// the memory image.
func (p *Part) Collect(node int) transport.CollectReply {
	perCore := p.PerCoreMetrics()
	var agg transport.CoreMetrics
	for _, m := range perCore {
		agg = agg.Add(m)
	}
	rep := transport.CollectReply{
		Node:     node,
		Counters: stats.CounterMap(agg),
		PerCore:  perCore,
		Mem:      make(map[uint32]uint32),
	}
	for _, id := range p.tr.Owned() {
		mem, events := p.shards[id].snapshot()
		rep.Events = append(rep.Events, events...)
		//em2:unordered-ok: shard images are address-disjoint (single-home invariant); merge order cannot matter
		for a, v := range mem {
			rep.Mem[a] = v
		}
	}
	return rep
}

// CollectChunked streams this part's post-run state through emit as a
// sequence of transport.CollectChunks: one per owned core (that core's
// metrics, its shard's events and memory slice), then a final Done chunk
// with the aggregate counters. The caller (ServeNode) may add wire stats
// to the Done chunk before sending. Chunking bounds each control-plane
// blob by one core's state, which is what keeps a 256-core node's
// collection inside the wire's blob cap.
func (p *Part) CollectChunked(node int, emit func(transport.CollectChunk) error) error {
	var agg transport.CoreMetrics
	for _, id := range p.tr.Owned() {
		m := p.ctr[id].metrics(id)
		agg = agg.Add(m)
		mem, events := p.shards[id].snapshot()
		if err := emit(transport.CollectChunk{Node: node, PerCore: &m, Events: events, Mem: mem}); err != nil {
			return err
		}
	}
	return emit(transport.CollectChunk{
		Node:     node,
		Done:     true,
		Counters: stats.CounterMap(agg),
	})
}

// ReclaimRegion deletes the words and removes the event-log entries of
// [lo, hi) from every owned shard, returning the removed events (core
// order) and the total words reclaimed — the serve path's retirement hook
// that keeps a long-running server's footprint bounded.
func (p *Part) ReclaimRegion(lo, hi uint32) ([]transport.Event, int) {
	var events []transport.Event
	words := 0
	for _, id := range p.tr.Owned() {
		ev, w := p.shards[id].reclaim(lo, hi)
		events = append(events, ev...)
		words += w
		// Resident threads' lease caches may hold words of the reclaimed
		// region; drop them so a recycled region can never serve a stale
		// lease to the next job.
		if n := p.nodeOf[id].Load(); n != nil {
			n.dropLeaseRange(lo, hi)
		}
	}
	return events, words
}

// toWire serializes a resident context for the transport, including the
// thread's predictor state and instruction-progress flag.
func (p *Part) toWire(c *context) transport.Context {
	w := transport.Context{
		Thread: int32(c.thread),
		Native: int32(c.native),
		MemSeq: c.memSeq,
		Cycles: c.cycles,
		Msgs:   c.msgs,
		Arch:   archContext(c),
	}
	if c.observed {
		w.Flags |= transport.FlagObserved
	}
	if c.pred.StateLen() > 0 {
		w.Sched = c.pred.AppendState(make([]byte, 0, c.pred.StateLen()))
	}
	return w
}

// fromWire rebuilds a resident context from its wire form; the program is
// looked up locally because code is replicated to every part, and the
// predictor is rebuilt from the scheme plus the shipped state (an empty
// Sched — the coordinator's initial injection — yields a fresh predictor).
func (p *Part) fromWire(w transport.Context) *context {
	t := int(w.Thread)
	if t < 0 || t >= len(p.specs) {
		panic(fmt.Sprintf("machine: context for unknown thread %d", t))
	}
	sp := p.specs[t].Load()
	if sp == nil {
		// A context for a slot with no installed spec means the serve
		// submit/ack barrier was violated (or a stray context outlived its
		// job's retirement): protocol corruption, fail loudly.
		panic(fmt.Sprintf("machine: context for thread slot %d with no installed spec", t))
	}
	pred := p.cfg.Scheme.NewPredictor(t)
	if len(w.Sched) > 0 {
		if err := pred.SetState(w.Sched); err != nil {
			// Undecodable predictor state is protocol corruption (scheme
			// mismatch between nodes, mangled frame): the thread's decision
			// unit is gone, so fail loudly.
			panic(fmt.Sprintf("machine: thread %d predictor state: %v", t, err))
		}
	}
	c := &context{
		thread:   t,
		pc:       w.Arch.PC,
		regs:     w.Arch.Regs,
		spec:     sp,
		native:   geom.CoreID(w.Native),
		memSeq:   w.MemSeq,
		cycles:   w.Cycles,
		msgs:     w.Msgs,
		pred:     pred,
		observed: w.Flags&transport.FlagObserved != 0,
	}
	if p.leaseWindow != 0 {
		// Every arrival starts with an empty lease cache (lease state never
		// rides the wire) — the trace-model oracle drops the cache at the
		// same points, which is what keeps hit/miss sequences identical.
		c.lease = core.NewLeaseCache(core.DefaultLeaseEntries, p.leaseWindow)
	}
	return c
}
