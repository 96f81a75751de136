package transport

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/isa"
)

// Manifest describes a cluster: the mesh dimensions and which node process
// owns (serves the shards and runs the core loops of) which cores. The
// core sets must partition the mesh exactly.
type Manifest struct {
	W     int        `json:"w"`
	H     int        `json:"h"`
	Nodes []NodeSpec `json:"nodes"`
}

// NodeSpec is one node process: its listen address and owned cores.
type NodeSpec struct {
	Addr  string        `json:"addr"`
	Cores []geom.CoreID `json:"cores"`
}

// Cores returns the total core count of the manifest's mesh.
func (m Manifest) Cores() int { return m.W * m.H }

// ErrDuplicateAddr reports two manifest nodes on one listen address: the
// second could never bind it.
var ErrDuplicateAddr = errors.New("transport: duplicate node address")

// Validate checks that the node core sets partition the mesh and that
// every node has its own address.
func (m Manifest) Validate() error {
	if m.W <= 0 || m.H <= 0 {
		return fmt.Errorf("transport: bad mesh %dx%d", m.W, m.H)
	}
	if len(m.Nodes) == 0 {
		return fmt.Errorf("transport: manifest has no nodes")
	}
	seen := make(map[geom.CoreID]int)
	addrs := make(map[string]int)
	for i, n := range m.Nodes {
		if n.Addr == "" {
			return fmt.Errorf("transport: node %d has no address", i)
		}
		if prev, dup := addrs[n.Addr]; dup {
			return fmt.Errorf("%w: nodes %d and %d both listen on %s", ErrDuplicateAddr, prev, i, n.Addr)
		}
		addrs[n.Addr] = i
		for _, c := range n.Cores {
			if int(c) < 0 || int(c) >= m.Cores() {
				return fmt.Errorf("transport: node %d owns core %d outside %dx%d mesh", i, c, m.W, m.H)
			}
			if prev, dup := seen[c]; dup {
				return fmt.Errorf("transport: core %d owned by nodes %d and %d", c, prev, i)
			}
			seen[c] = i
		}
	}
	if len(seen) != m.Cores() {
		return fmt.Errorf("transport: %d of %d cores assigned to nodes", len(seen), m.Cores())
	}
	return nil
}

// routes returns the core→node index map. The manifest must be valid.
func (m Manifest) routes() []int {
	r := make([]int, m.Cores())
	for i, n := range m.Nodes {
		for _, c := range n.Cores {
			r[c] = i
		}
	}
	return r
}

// WriteFile stores the manifest as JSON.
func (m Manifest) WriteFile(path string) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadManifest reads a JSON manifest and validates it.
func LoadManifest(path string) (Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return Manifest{}, fmt.Errorf("transport: %s: %v", path, err)
	}
	return m, m.Validate()
}

// LocalManifest builds a loopback manifest for an N-node cluster on a WxH
// mesh: cores are split into contiguous blocks and each node gets a free
// 127.0.0.1 port (probed by listening on :0, every probe held until all
// ports are drawn so no two nodes share one; the window between release
// and the node's bind is harmless on a test host).
func LocalManifest(nodes, w, h int) (Manifest, error) {
	cores := w * h
	if nodes <= 0 || nodes > cores {
		return Manifest{}, fmt.Errorf("transport: %d nodes for %d cores", nodes, cores)
	}
	m := Manifest{W: w, H: h, Nodes: make([]NodeSpec, nodes)}
	for i := range m.Nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return Manifest{}, err
		}
		defer ln.Close() // held until every port is drawn
		m.Nodes[i].Addr = ln.Addr().String()
		lo, hi := i*cores/nodes, (i+1)*cores/nodes
		for c := lo; c < hi; c++ {
			m.Nodes[i].Cores = append(m.Nodes[i].Cores, geom.CoreID(c))
		}
	}
	return m, m.Validate()
}

// LoadSpec is the coordinator's "load this run" broadcast: machine
// configuration, the thread-slot pool size, and the optional initial Job
// every node installs before acking — a closed-loop run's programs and
// image. A serving run leaves Job nil and submits jobs later.
type LoadSpec struct {
	GuestContexts int
	Quantum       int
	Scheme        string // parsed by machine.ParseScheme on each node
	Placement     string // parsed by machine.ParsePlacement on each node
	LogEvents     bool
	NumThreads    int
	Job           *JobSpec `json:",omitempty"`
}

// Heartbeat is a node's periodic liveness report: a sequence number. It
// flows asynchronously on the coordinator link — liveness is observed, not
// inferred from connection death — and is purely advisory: it annotates
// timeout errors and nothing deterministic may depend on it.
type Heartbeat struct {
	Node int
	Seq  uint64
}

// NodeSample is one node's reply to a FrameSampleReq: its metrics Sample,
// or the reason it could not take one.
type NodeSample struct {
	Node   int
	Sample Sample
	Err    string `json:",omitempty"`
}

// CollectChunk is one increment of a node's post-run state: per-core
// chunks (that core's metrics, its shard's events and memory slice) stream
// as the node drains, followed by a final Done chunk carrying the node's
// aggregate counters and wire stats. Chunking bounds each control blob by
// one core's state instead of one node's, which is what keeps a 256-core
// collection inside the wire's blob cap.
type CollectChunk struct {
	Node    int
	PerCore *CoreMetrics      `json:",omitempty"` // per-core chunk
	Events  []Event           `json:",omitempty"`
	Mem     map[uint32]uint32 `json:",omitempty"`
	// Done marks the node's final chunk, carrying the aggregates.
	Done     bool             `json:",omitempty"`
	Counters map[string]int64 `json:",omitempty"`
	Net      *NetStats        `json:",omitempty"`
}

// JobSpec is one job: programs (isa.Encode form) and initial registers for
// the slots it occupies, plus its initial memory image. Broadcast to every
// node (in the LoadSpec or a JobSubmit), each node installs the thread
// specs (replicated, like instruction memory) and preloads what it homes.
type JobSpec struct {
	Job      int
	Slots    []int            // global thread slots, one per job thread
	Programs [][]uint32       // Programs[i]: Slots[i]'s instructions, isa.Encode form
	Regs     []map[int]uint32 // initial register values per job thread
	Mem      map[uint32]uint32
}

// JobAck confirms (or refuses) one node's installation of a JobSpec. The
// coordinator must not inject the job's contexts until every node acked:
// a migration can cross node links and arrive ahead of the coordinator's
// own JobSubmit frame, and a context for a slot with no installed spec is
// protocol corruption. A load is acked the same way, as the install of its
// initial job (job 0): a node that cannot build its part reports the
// actual error, and a success ack is sent once its data plane is open.
type JobAck struct {
	Job  int
	Node int
	Err  string `json:",omitempty"`
}

// JobDone retires a completed job's slots on every node, so a stray late
// context for a retired slot fails loudly instead of executing a stale
// program. When Reclaim is set it also names the job's memory region
// [Base, Base+Size): each node deletes the region's shard words and
// removes (and returns, via JobRetired) the region's event-log entries,
// which is what keeps an open-loop server's footprint bounded by the
// in-flight window instead of growing O(jobs).
type JobDone struct {
	Job     int
	Slots   []int
	Base    uint32 `json:",omitempty"`
	Size    uint32 `json:",omitempty"`
	Reclaim bool   `json:",omitempty"`
}

// JobRetired is one node's reply to a JobDone: confirmation that the slots
// are cleared, plus — when the JobDone asked for reclamation — the retired
// region's event-log entries (removed from the node's shards) and the
// number of shard words reclaimed. The coordinator gathers one per node
// before reusing the region, making retirement a barrier like submission.
type JobRetired struct {
	Job    int
	Node   int
	Events []Event `json:",omitempty"`
	Words  int     `json:",omitempty"`
	Err    string  `json:",omitempty"`
}

// HaltMsg reports a thread's HALT to the coordinator, carrying its final
// register file from whichever core it was resident on and the cost
// counters its context accumulated (machine cycles and interconnect
// messages under the §3 cost model).
type HaltMsg struct {
	Thread int
	Regs   [isa.NumRegs]uint32
	Cycles uint64
	Msgs   uint32
}

// CollectReply is one node's post-run state: its counters (aggregate and
// per owned core), the event logs of its shards, its slice of the final
// memory image, and — when the part ran over TCP — the node's wire-level
// traffic counters.
type CollectReply struct {
	Node     int
	Counters map[string]int64
	PerCore  []CoreMetrics // owned cores, ascending
	Events   []Event
	Mem      map[uint32]uint32
	Net      *NetStats `json:",omitempty"` // nil for in-process parts
}

// --- wire protocol -------------------------------------------------------

const coordinatorID = -1

// errStopRead tells a connection reader to stop cleanly (orderly shutdown
// frame, duplicate connection) — not a protocol error.
var errStopRead = errors.New("transport: stop reading")

// pendingCall is one in-flight Remote round trip: the reply channel and the
// connection the request left on (replies come back on the same link, so a
// dying connection fails exactly its own calls). Every entry is removed
// from Node.pending under the mutex exactly once — by the reply, or by the
// teardown sweep — so ch is either sent to or closed, never both.
type pendingCall struct {
	ch   chan MemReply
	conn *conn
}

// conn is one batch-framed TCP connection (wire.go): coalescing writes
// through the shared batch buffer, buffered batch reads. Contexts ride as
// their fixed ContextWireBytes encoding, so what crosses the wire per
// migration is exactly the byte string a hardware transfer would ship.
type conn struct {
	c  net.Conn
	br *bufio.Reader
	w  batchWriter
}

func newConn(c net.Conn, nc *netCounters) *conn {
	cn := &conn{c: c, br: bufio.NewReaderSize(c, 32<<10)}
	cn.w.init(c, nc)
	return cn
}

// sendJSON marshals v and ships it as a control frame, flushing anything
// deferred ahead of it.
func (c *conn) sendJSON(kind FrameKind, v any) error {
	blob, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return c.w.appendBlob(kind, blob)
}

// peerSlot holds a connection that may not exist yet; ready closes when it
// does, so senders can block until the mesh is wired up.
type peerSlot struct {
	once  sync.Once
	ready chan struct{}
	c     *conn
}

func newPeerSlot() *peerSlot { return &peerSlot{ready: make(chan struct{})} }

func (p *peerSlot) set(c *conn) bool {
	ok := false
	p.once.Do(func() { p.c = c; close(p.ready); ok = true })
	return ok
}

func (p *peerSlot) get(cancel <-chan struct{}) (*conn, error) {
	select {
	case <-p.ready:
		return p.c, nil
	case <-cancel:
		return nil, fmt.Errorf("transport: shut down while waiting for peer")
	}
}

// dialRetry dials addr every 20 ms until it answers or stop closes — node
// and coordinator processes start in arbitrary order.
func dialRetry(addr string, stop <-chan struct{}) (net.Conn, error) {
	for {
		c, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err == nil {
			return c, nil
		}
		select {
		case <-stop:
			return nil, fmt.Errorf("transport: dial %s: %v", addr, err)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// --- node endpoint -------------------------------------------------------

// Node is the TCP transport endpoint of one node process. It implements
// Transport for the cores its manifest entry owns and additionally carries
// the coordinator's control plane: Load, Halt, Collect, Shutdown.
//
// Lifecycle (see machine.ServeNode): ListenNode, receive the LoadSpec from
// Loads(), build the machine part (which installs the memory handler and
// calls Prepare), call Ready, serve the run, answer CollectRequests, exit
// on ShutdownC.
type Node struct {
	man   Manifest
	idx   int
	ln    net.Listener
	route []int
	owned []geom.CoreID
	nc    netCounters

	peers []*peerSlot // by node index
	coord *peerSlot

	ready    chan struct{} // closed by Ready(): inboxes + handler installed
	mu       sync.Mutex
	mig      map[geom.CoreID]chan Context
	evict    map[geom.CoreID]chan Context
	handler  func(core geom.CoreID, req MemRequest) MemReply
	invH     func(inv LeaseInval)
	jobs     JobHandler
	sampleH  func() Sample
	hbOnce   sync.Once
	nextID   atomic.Uint64
	pending  map[uint64]*pendingCall
	loads    chan *LoadSpec
	collects chan struct{}
	shutdown chan struct{}
	closed   atomic.Bool
}

// ListenNode starts the endpoint for man.Nodes[idx]: it listens on the
// manifest address, dials every lower-index peer (with retry, so start
// order does not matter), and accepts connections from higher-index peers
// and the coordinator in the background.
func ListenNode(man Manifest, idx int) (*Node, error) {
	if err := man.Validate(); err != nil {
		return nil, err
	}
	if idx < 0 || idx >= len(man.Nodes) {
		return nil, fmt.Errorf("transport: node index %d of %d", idx, len(man.Nodes))
	}
	ln, err := net.Listen("tcp", man.Nodes[idx].Addr)
	if err != nil {
		return nil, fmt.Errorf("transport: node %d listen: %v", idx, err)
	}
	owned := append([]geom.CoreID(nil), man.Nodes[idx].Cores...)
	sort.Slice(owned, func(i, j int) bool { return owned[i] < owned[j] })
	n := &Node{
		man:      man,
		idx:      idx,
		ln:       ln,
		route:    man.routes(),
		owned:    owned,
		peers:    make([]*peerSlot, len(man.Nodes)),
		coord:    newPeerSlot(),
		ready:    make(chan struct{}),
		pending:  make(map[uint64]*pendingCall),
		loads:    make(chan *LoadSpec, 1),
		collects: make(chan struct{}, 1),
		shutdown: make(chan struct{}),
	}
	for i := range n.peers {
		n.peers[i] = newPeerSlot()
	}
	go n.acceptLoop()
	for j := 0; j < idx; j++ {
		go n.dialPeer(j)
	}
	return n, nil
}

func (n *Node) acceptLoop() {
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		cc := newConn(c, &n.nc)
		// The first frame must be the hello identifying the dialer; it may
		// share its batch with data frames that follow it, which the same
		// reader then dispatches.
		go func() {
			identified := false
			fromCoordinator := false
			err := readBatches(cc.br, &n.nc, func(f Frame) error {
				if !identified {
					if f.Kind != FrameHello {
						return malformedf("first frame kind %d, want hello", f.Kind)
					}
					switch {
					case f.From == coordinatorID:
						if !n.coord.set(cc) {
							return errStopRead // duplicate coordinator connection
						}
						fromCoordinator = true
					case f.From >= 0 && int(f.From) < len(n.peers):
						if !n.peers[f.From].set(cc) {
							return errStopRead // duplicate peer connection
						}
					default:
						return malformedf("hello from unknown peer %d", f.From)
					}
					identified = true
					return nil
				}
				return n.handleFrame(cc, f)
			})
			// A malformed stream from a stranger just drops the connection;
			// after identification it is protocol corruption on a live link.
			n.finishRead(cc, err, fromCoordinator, identified)
			c.Close()
		}()
	}
}

// finishRead implements the shared connection-teardown policy: corruption
// on an identified link fails the node loudly (a context or reply may be
// gone — better a visible death than a silent hang); a dropped coordinator
// connection releases the node; a peer closing at a batch boundary is
// normal teardown. Either way, Remote calls whose requests left on this
// connection can never be answered, so they are failed now rather than
// left to stall until the cluster timeout.
func (n *Node) finishRead(c *conn, err error, fromCoordinator, identified bool) {
	switch {
	case errors.Is(err, errStopRead):
		// Orderly: shutdown frame handled, or a duplicate connection.
	case errors.Is(err, ErrMalformedFrame):
		if identified {
			fmt.Fprintf(os.Stderr, "transport: node %d: %v\n", n.idx, err)
			n.triggerShutdown()
		}
	default: // io error: EOF or closed connection
		if fromCoordinator {
			// The coordinator dropping without a shutdown frame means the
			// driver died: release the node rather than wedging forever.
			n.triggerShutdown()
		}
	}
	n.failPending(c)
}

// failPending completes every in-flight Remote whose request left on c
// with a closed channel (the caller surfaces it as a lost-connection
// error). Entries are removed under the mutex, so a racing reply either
// owns the entry or never sees it — the channel is sent to or closed,
// never both.
func (n *Node) failPending(c *conn) {
	var lost []*pendingCall
	n.mu.Lock()
	//em2:unordered-ok: every matching call gets the same closed-channel fate; nothing observes the close order
	for id, call := range n.pending {
		if call.conn == c {
			delete(n.pending, id)
			lost = append(lost, call)
		}
	}
	n.mu.Unlock()
	for _, call := range lost {
		close(call.ch)
	}
}

// handleFrame dispatches one inbound frame. Data-plane frames wait for
// Ready — the coordinator's Load always gets through first because it
// arrives on its own connection — and are delivered into per-core inboxes
// whose capacity (one slot per thread) guarantees the push never blocks;
// that is the wire credit that keeps every socket drained even mid-batch.
// A data-plane frame for a core this node does not own (two nodes on
// skewed manifests) is protocol corruption and fails the link.
func (n *Node) handleFrame(c *conn, f Frame) error {
	switch f.Kind {
	case FrameLoad:
		spec := new(LoadSpec)
		if err := json.Unmarshal(f.Blob, spec); err != nil {
			return malformedf("load spec: %v", err)
		}
		select {
		case n.loads <- spec:
		default:
		}
	case FrameMigration, FrameEviction:
		if !n.Owns(f.Dst) {
			return malformedf("context for core %d, which node %d does not own", f.Dst, n.idx)
		}
		ctx, err := DecodeContext(f.Ctx)
		if err != nil {
			// A context that does not decode is protocol corruption (version
			// skew, mangled frame): the thread it carried is gone.
			return malformedf("context for core %d: %v", f.Dst, err)
		}
		if !n.waitReady() {
			return errStopRead
		}
		return n.sendCtx(f.Kind, f.Dst, ctx) // an owned core: a local inbox push
	case FrameMemReq:
		if !n.Owns(f.Dst) {
			return malformedf("memory request for core %d, which node %d does not own", f.Dst, n.idx)
		}
		if !n.waitReady() {
			return errStopRead
		}
		go func(dst geom.CoreID, id uint64, req MemRequest) {
			rep := n.handler(dst, req)
			if rep.Lease != 0 {
				c.w.appendLeaseRep(id, rep)
			} else {
				c.w.appendMemRep(id, rep)
			}
		}(f.Dst, f.ID, f.Req)
	case FrameMemRep, FrameLeaseRep:
		n.mu.Lock()
		call := n.pending[f.ID]
		delete(n.pending, f.ID)
		n.mu.Unlock()
		if call != nil {
			call.ch <- f.Rep
		}
	case FrameLeaseInval:
		if !n.waitReady() {
			return errStopRead
		}
		if n.invH != nil {
			n.invH(f.Inv)
		}
	case FrameJobSubmit:
		return answer(n, c, f, FrameJobAck, func(spec *JobSpec) (JobAck, bool) {
			ack := JobAck{Job: spec.Job, Node: n.idx}
			if n.jobs == nil {
				return ack, false
			}
			if err := n.jobs.ApplyJob(spec); err != nil {
				ack.Err = err.Error()
			}
			return ack, true
		})
	case FrameJobDone:
		return answer(n, c, f, FrameJobRetired, func(d *JobDone) (JobRetired, bool) {
			if n.jobs == nil {
				return JobRetired{}, false
			}
			ret := n.jobs.RetireJob(*d)
			ret.Node = n.idx
			return ret, true
		})
	case FrameSampleReq:
		return answer(n, c, f, FrameSampleRep, func(*struct{}) (NodeSample, bool) {
			s, err := n.Sample()
			rep := NodeSample{Node: n.idx, Sample: s}
			if err != nil {
				rep.Err = err.Error()
			}
			return rep, true
		})
	case FrameCollect:
		select {
		case n.collects <- struct{}{}:
		default:
		}
	case FrameShutdown:
		n.triggerShutdown()
		return errStopRead
	default:
		return malformedf("unexpected frame kind %d on a node link", f.Kind)
	}
	return nil
}

// answer serves one control request synchronously on the reader: decode
// it (kind-only requests use struct{}), wait for Ready so the installed
// handlers are visible, and reply on the same connection, where FIFO
// pairs reply and request. Being synchronous, it orders the request before
// every later frame on the link: injections after a JobSubmit find the
// specs installed. handle reports false when no handler is installed —
// protocol corruption.
func answer[Req, Rep any](n *Node, c *conn, f Frame, kind FrameKind, handle func(*Req) (Rep, bool)) error {
	req := new(Req)
	if _, kindOnly := any(req).(*struct{}); !kindOnly {
		if err := json.Unmarshal(f.Blob, req); err != nil {
			return malformedf("kind %d request: %v", f.Kind, err)
		}
	}
	if !n.waitReady() {
		return errStopRead
	}
	rep, ok := handle(req)
	if !ok {
		return malformedf("kind %d request to a node not serving jobs", f.Kind)
	}
	return c.sendJSON(kind, &rep)
}

// dialPeer connects to a lower-index peer, retrying until it answers or
// this endpoint is torn down — nodes may be started in any order, and how
// long "any order" stretches is the operator's business (the coordinator's
// run timeout bounds the overall wait).
func (n *Node) dialPeer(j int) {
	c, err := dialRetry(n.man.Nodes[j].Addr, n.shutdown)
	if err != nil {
		return
	}
	cc := newConn(c, &n.nc)
	if cc.w.appendKind(FrameHello, int32(n.idx)) != nil || !n.peers[j].set(cc) {
		c.Close()
		return
	}
	err = readBatches(cc.br, &n.nc, func(f Frame) error { return n.handleFrame(cc, f) })
	n.finishRead(cc, err, false, true)
	c.Close()
}

// triggerShutdown closes the shutdown channel once, releasing every
// blocked sender and ServeNode's control-plane waits.
func (n *Node) triggerShutdown() {
	if n.closed.CompareAndSwap(false, true) {
		close(n.shutdown)
	}
}

// Prepare sizes the per-core inboxes for a run of numThreads threads. It
// must be called (by the machine part) before Ready.
func (n *Node) Prepare(numThreads int) {
	n.mig = make(map[geom.CoreID]chan Context, len(n.owned))
	n.evict = make(map[geom.CoreID]chan Context, len(n.owned))
	for _, c := range n.owned {
		n.mig[c] = make(chan Context, numThreads)
		n.evict[c] = make(chan Context, numThreads)
	}
}

// Ready opens the data plane: inbound migrations, evictions and memory
// requests held by readLoop proceed. Call after Prepare and HandleMem.
func (n *Node) Ready() { close(n.ready) }

// waitReady blocks until the data plane opens, or reports false if the
// endpoint shut down first (a node that rejected its LoadSpec never calls
// Ready; its readLoops must not wedge forever).
func (n *Node) waitReady() bool {
	select {
	case <-n.ready:
		return true
	case <-n.shutdown:
		return false
	}
}

// Loads returns the channel delivering the coordinator's LoadSpec.
func (n *Node) Loads() <-chan *LoadSpec { return n.loads }

// CollectRequests signals the coordinator's Collect broadcast.
func (n *Node) CollectRequests() <-chan struct{} { return n.collects }

// ShutdownC closes when the coordinator's Close sends the shutdown frame.
func (n *Node) ShutdownC() <-chan struct{} { return n.shutdown }

// SendHalt reports a thread HALT to the coordinator. Control frames flush
// immediately.
func (n *Node) SendHalt(h HaltMsg) error { return n.sendCoord(FrameHalt, &h) }

// SendLoadAck reports the outcome of installing the LoadSpec: success
// after the node's data plane is open, or the actual failure message —
// so the coordinator surfaces "bad scheme name" instead of a bare
// connection death.
func (n *Node) SendLoadAck(ack JobAck) error { return n.sendCoord(FrameLoadAck, &ack) }

// SendCollectChunk streams one increment of the node's post-run state.
// The node sends per-core chunks as it drains and a final Done chunk
// carrying its aggregates; the coordinator reassembles them in arrival
// order (per-connection FIFO makes that the send order).
func (n *Node) SendCollectChunk(ch CollectChunk) error { return n.sendCoord(FrameCollectChunk, &ch) }

// sendCoord ships one control frame to the coordinator.
func (n *Node) sendCoord(kind FrameKind, v any) error {
	c, err := n.coord.get(n.shutdown)
	if err != nil {
		return err
	}
	return c.sendJSON(kind, v)
}

// StartHeartbeat begins the node's liveness heartbeat toward the
// coordinator: every interval, a Heartbeat frame with an increasing Seq.
// The goroutine exits on shutdown or the first send error (a dead
// coordinator link needs no further liveness reports). Idempotent;
// interval must be positive.
func (n *Node) StartHeartbeat(interval time.Duration) {
	n.hbOnce.Do(func() {
		go func() {
			tick := time.NewTicker(interval)
			defer tick.Stop()
			var seq uint64
			for {
				select {
				case <-n.shutdown:
					return
				case <-tick.C:
				}
				seq++
				if err := n.sendCoord(FrameHeartbeat, &Heartbeat{Node: n.idx, Seq: seq}); err != nil {
					return
				}
			}
		}()
	})
}

// NetStats snapshots the node's wire-level traffic counters, summed over
// every connection.
func (n *Node) NetStats() NetStats { return n.nc.snapshot() }

// Close tears the endpoint down, releasing any goroutine blocked on the
// shutdown channel (peer waits, in-flight Remote calls).
func (n *Node) Close() error {
	n.triggerShutdown()
	err := n.ln.Close()
	for _, p := range n.peers {
		select {
		case <-p.ready:
			p.c.c.Close()
		default:
		}
	}
	select {
	case <-n.coord.ready:
		n.coord.c.c.Close()
	default:
	}
	return err
}

// Cores implements Transport.
func (n *Node) Cores() int { return n.man.Cores() }

// Owned implements Transport.
func (n *Node) Owned() []geom.CoreID { return n.owned }

// Owns implements Transport.
func (n *Node) Owns(core geom.CoreID) bool {
	return int(core) >= 0 && int(core) < len(n.route) && n.route[core] == n.idx
}

// MigrationIn implements Transport; Prepare must have run.
func (n *Node) MigrationIn(core geom.CoreID) <-chan Context { return n.mig[core] }

// EvictionIn implements Transport; Prepare must have run.
func (n *Node) EvictionIn(core geom.CoreID) <-chan Context { return n.evict[core] }

// HandleMem implements Transport.
func (n *Node) HandleMem(h func(core geom.CoreID, req MemRequest) MemReply) { n.handler = h }

// HandleLeaseInval implements Transport. Install before Ready; inbound
// FrameLeaseInval waits for Ready and drops silently with no handler
// (write-updates are advisory — holders expire on their own clocks).
func (n *Node) HandleLeaseInval(h func(inv LeaseInval)) { n.invH = h }

// JobHandler is the machine side of a node's job control plane
// (machine.Part): install a job's thread specs and memory image, and
// retire a finished job's slots and region.
type JobHandler interface {
	ApplyJob(*JobSpec) error
	RetireJob(JobDone) JobRetired
}

// HandleJobs installs the handler JobSubmit and JobDone requests are
// answered with (see answer); the node stamps its index on each reply.
// Install before Ready.
func (n *Node) HandleJobs(h JobHandler) { n.jobs = h }

// HandleSample installs the machine-side sampler behind Sample(): the
// part's non-destructive snapshot. Install before Ready (like the job
// handlers); FrameSampleReq waits for Ready before consulting it.
func (n *Node) HandleSample(h func() Sample) { n.sampleH = h }

// Sample implements MetricsSource for the node endpoint: the installed
// machine sampler's snapshot with the node's own wire counters stamped in.
// Without an installed sampler only the wire counters are reported.
func (n *Node) Sample() (Sample, error) {
	var s Sample
	if n.sampleH != nil {
		s = n.sampleH()
	}
	s.Net = n.nc.snapshot()
	return s, nil
}

// SendMigration implements Transport: a channel push when dst is owned
// locally, a deferred frame into the owning node's batch buffer otherwise —
// coalesced with every other ready message at the next Flush.
func (n *Node) SendMigration(dst geom.CoreID, c Context) error {
	return n.sendCtx(FrameMigration, dst, c)
}

// SendEviction implements Transport.
func (n *Node) SendEviction(dst geom.CoreID, c Context) error {
	return n.sendCtx(FrameEviction, dst, c)
}

func (n *Node) sendCtx(kind FrameKind, dst geom.CoreID, c Context) error {
	if n.Owns(dst) {
		if kind == FrameMigration {
			n.mig[dst] <- c
		} else {
			n.evict[dst] <- c
		}
		return nil
	}
	pc, err := n.peers[n.route[dst]].get(n.shutdown)
	if err != nil {
		return err
	}
	// Deferred: the context encodes straight into the batch buffer and
	// ships at the machine's next flush point (or piggybacks on an eager
	// frame to the same peer).
	return pc.w.appendCtx(kind, dst, c)
}

// Flush implements Transport: every peer connection's coalesced batch goes
// out, one write per connection. Peers this endpoint never spoke to (or
// that have not connected yet) are skipped — Flush never blocks on an
// unestablished link.
func (n *Node) Flush() error {
	var first error
	for _, p := range n.peers {
		select {
		case <-p.ready:
			if err := p.c.w.flush(); err != nil && first == nil {
				first = err
			}
		default:
		}
	}
	return first
}

// Remote implements Transport: a direct handler call for owned cores, a
// request/reply round trip to the owning node otherwise. The request frame
// flushes immediately, carrying any deferred frames on that connection in
// the same write.
func (n *Node) Remote(dst geom.CoreID, req MemRequest) (MemReply, error) {
	if n.Owns(dst) {
		return n.handler(dst, req), nil
	}
	pc, err := n.peers[n.route[dst]].get(n.shutdown)
	if err != nil {
		return MemReply{}, err
	}
	id := n.nextID.Add(1)
	call := &pendingCall{ch: make(chan MemReply, 1), conn: pc}
	n.mu.Lock()
	n.pending[id] = call
	n.mu.Unlock()
	if err := pc.w.appendMemReq(dst, id, req); err != nil {
		n.mu.Lock()
		delete(n.pending, id)
		n.mu.Unlock()
		return MemReply{}, err
	}
	select {
	case rep, ok := <-call.ch:
		if !ok {
			return MemReply{}, fmt.Errorf("transport: connection to core %d's node lost awaiting reply", dst)
		}
		return rep, nil
	case <-n.shutdown:
		return MemReply{}, fmt.Errorf("transport: shut down awaiting reply from core %d", dst)
	}
}

// SendLeaseInval implements Transport: a direct handler call when the
// holder's core is owned locally, an eager one-way frame to the owning
// node otherwise. There is no reply — the update is advisory and the
// writer's shard op has already committed.
func (n *Node) SendLeaseInval(inv LeaseInval) error {
	if n.Owns(inv.Dst) {
		if n.invH != nil {
			n.invH(inv)
		}
		return nil
	}
	pc, err := n.peers[n.route[inv.Dst]].get(n.shutdown)
	if err != nil {
		return err
	}
	return pc.w.appendLeaseInval(inv)
}

// --- coordinator ---------------------------------------------------------

// Coordinator is the driver side of a cluster run: it owns no cores but
// connects to every node to broadcast the LoadSpec, submit and retire
// jobs, inject the initial contexts, gather HALT reports, and collect the
// post-run state.
type Coordinator struct {
	route  []int
	conns  []*conn
	nc     netCounters
	halts  chan HaltMsg
	deaths chan error
	down   atomic.Bool // set by Close: reader exits become orderly

	gmu     sync.Mutex   // one gather at a time, so each node's pending order is its request order
	mu      sync.Mutex   // guards pending
	pending [][]*barrier // per node, the barriers it has yet to answer, oldest first

	hbMu sync.Mutex
	hb   map[int]HeartbeatInfo
}

// HeartbeatInfo is the coordinator's last-seen liveness record for one
// node: the heartbeat's sequence number, stamped with the
// coordinator-side arrival time. Advisory only — it feeds timeout
// diagnostics, never results.
type HeartbeatInfo struct {
	Node int
	Seq  uint64
	At   time.Time
}

// DialCluster connects to every node in the manifest, retrying until
// timeout so the node processes may still be starting.
func DialCluster(man Manifest, timeout time.Duration) (*Coordinator, error) {
	if err := man.Validate(); err != nil {
		return nil, err
	}
	co := &Coordinator{
		route:   man.routes(),
		conns:   make([]*conn, len(man.Nodes)),
		halts:   make(chan HaltMsg, 4096),
		deaths:  make(chan error, len(man.Nodes)),
		pending: make([][]*barrier, len(man.Nodes)),
		hb:      make(map[int]HeartbeatInfo),
	}
	stop := make(chan struct{})
	deadline := time.AfterFunc(timeout, func() { close(stop) })
	defer deadline.Stop()
	for i, ns := range man.Nodes {
		c, err := dialRetry(ns.Addr, stop)
		if err == nil {
			co.conns[i] = newConn(c, &co.nc)
			err = co.conns[i].w.appendKind(FrameHello, coordinatorID)
		}
		if err != nil {
			co.Close()
			return nil, err
		}
		go co.readLoop(i, co.conns[i])
	}
	return co, nil
}

func (co *Coordinator) readLoop(node int, c *conn) {
	err := readBatches(c.br, &co.nc, func(f Frame) error {
		switch f.Kind {
		case FrameHalt:
			var h HaltMsg
			if err := json.Unmarshal(f.Blob, &h); err != nil {
				return malformedf("halt report: %v", err)
			}
			co.halts <- h
		case FrameLoadAck, FrameJobAck, FrameJobRetired, FrameSampleRep, FrameCollectChunk:
			return co.deliver(node, f.Kind, f.Blob)
		case FrameHeartbeat:
			var hb Heartbeat
			if err := json.Unmarshal(f.Blob, &hb); err != nil {
				return malformedf("heartbeat: %v", err)
			}
			co.hbMu.Lock()
			co.hb[node] = HeartbeatInfo{Node: node, Seq: hb.Seq, At: time.Now()}
			co.hbMu.Unlock()
		default:
			return malformedf("unexpected frame kind %d on the coordinator link", f.Kind)
		}
		return nil
	})
	// Corruption fails loudly either way. Any reader exit before the
	// coordinator itself initiated shutdown — EOF from a dying node process,
	// a cut connection, a malformed stream — is a node death: report it on
	// Deaths so the driver can fail the run immediately instead of
	// discovering the loss as a timeout (or, worse, miscounting garbage
	// halts toward completion).
	if errors.Is(err, ErrMalformedFrame) {
		fmt.Fprintf(os.Stderr, "transport: coordinator: %v\n", err)
	}
	if !co.down.Load() {
		select {
		case co.deaths <- fmt.Errorf("transport: connection to node %d lost: %v", node, err):
		default:
		}
	}
}

// barrier is one gather as the connection readers see it. arrived queues
// the nodes whose reply is complete, at most one entry per node, so a
// delivery never blocks the reader.
type barrier struct {
	kind    FrameKind
	put     func(node int, blob []byte) (done bool, err error)
	arrived chan int
}

// deliver hands one reply frame from node to the oldest barrier that node
// has yet to answer. A node answers its coordinator link in request order,
// so a late reply to a gather that gave up lands in that abandoned barrier
// and never satisfies a later one. A reply of the wrong kind or with no
// barrier awaiting it is protocol corruption.
func (co *Coordinator) deliver(node int, kind FrameKind, blob []byte) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	q := co.pending[node]
	if len(q) == 0 || q[0].kind != kind {
		return malformedf("unexpected kind %d reply from node %d", kind, node)
	}
	done, err := q[0].put(node, blob)
	if err != nil {
		return malformedf("kind %d reply from node %d: %v", kind, node, err)
	}
	if done {
		q[0].arrived <- node
		co.pending[node] = append(q[:0], q[1:]...)
	}
	return nil
}

// decodeJSON is the merge of a reply that arrives as one JSON blob.
func decodeJSON[T any](_ int, r *T, blob []byte) (bool, error) { return true, json.Unmarshal(blob, r) }

// reply reports the job a barrier reply answers (0 when the barrier is not
// about one job) and the error the node sent, if any.
type reply interface{ status() (job int, err string) }

func (a JobAck) status() (int, string)       { return a.Job, a.Err }
func (r JobRetired) status() (int, string)   { return r.Job, r.Err }
func (s NodeSample) status() (int, string)   { return 0, s.Err }
func (r CollectReply) status() (int, string) { return 0, "" }

// gather is the coordinator's one barrier: it broadcasts req (body as its
// JSON blob, or the kind byte alone when nil) and returns one kind-rep
// reply per node, ordered by node, each assembled from its frames by
// merge. It fails at the first reply with an error or the wrong job, a
// node death, or the timeout. On a death the replies already queued are
// checked first: a dying node's explanatory error wins over the bare
// connection loss.
func gather[T reply](co *Coordinator, what string, job int, req FrameKind, body any, rep FrameKind,
	merge func(int, *T, []byte) (bool, error), timeout time.Duration) ([]T, error) {
	co.gmu.Lock()
	defer co.gmu.Unlock()
	replies := make([]T, len(co.conns))
	b := &barrier{kind: rep, arrived: make(chan int, len(co.conns)), put: func(i int, blob []byte) (bool, error) {
		return merge(i, &replies[i], blob)
	}}
	check := func(i int) error {
		switch got, msg := replies[i].status(); {
		case got != job:
			return fmt.Errorf("transport: %s: node %d answered job %d, want job %d", what, i, got, job)
		case msg != "":
			return fmt.Errorf("transport: %s: node %d failed: %s", what, i, msg)
		}
		return nil
	}
	for i, c := range co.conns {
		co.mu.Lock()
		co.pending[i] = append(co.pending[i], b)
		co.mu.Unlock()
		var err error
		if body == nil {
			err = c.w.appendKind(req, 0)
		} else {
			err = c.sendJSON(req, body)
		}
		if err != nil {
			co.mu.Lock()
			co.pending[i] = co.pending[i][:len(co.pending[i])-1] // never sent, so never answered
			co.mu.Unlock()
			return nil, err
		}
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for left := len(replies); left > 0; left-- {
		select {
		case i := <-b.arrived:
			if err := check(i); err != nil {
				return nil, err
			}
		case death := <-co.deaths:
			for len(b.arrived) > 0 {
				if err := check(<-b.arrived); err != nil {
					return nil, err
				}
			}
			return nil, death
		case <-timer.C:
			return nil, fmt.Errorf("transport: %s: %d of %d nodes replied before timeout", what, len(replies)-left, len(replies))
		}
	}
	return replies, nil
}

// Load broadcasts the run description to every node and gathers one
// load ack per node: the barrier that turns a node's load failure into its
// actual error message ("unknown scheme …") instead of a bare connection
// death. A node acks success only once its data plane is open, so a nil
// return also means every node is ready for injection.
func (co *Coordinator) Load(spec *LoadSpec, timeout time.Duration) error {
	_, err := gather(co, "load", 0, FrameLoad, spec, FrameLoadAck, decodeJSON[JobAck], timeout)
	return err
}

// Heartbeats snapshots the last heartbeat seen from each node, sorted by
// node index. Nodes that have not yet heartbeated are absent. Advisory:
// use it to annotate timeouts, never to compute results.
func (co *Coordinator) Heartbeats() []HeartbeatInfo {
	co.hbMu.Lock()
	infos := make([]HeartbeatInfo, 0, len(co.hb))
	//em2:unordered-ok: the snapshot is sorted by node index immediately below
	for _, hi := range co.hb {
		infos = append(infos, hi)
	}
	co.hbMu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Node < infos[j].Node })
	return infos
}

// InjectEviction places an initial context: like the in-process machine,
// injection uses the eviction network of the thread's native core, whose
// arrival is always accepted. Injections are deferred into the owning
// node's batch buffer — call Flush after the last one, and a whole run's
// initial contexts reach each node in a single write.
func (co *Coordinator) InjectEviction(dst geom.CoreID, c Context) error {
	return co.conns[co.route[dst]].w.appendCtx(FrameEviction, dst, c)
}

// Flush ships every deferred injection, one batch per node connection.
func (co *Coordinator) Flush() error {
	var first error
	for _, c := range co.conns {
		if c == nil {
			continue
		}
		if err := c.w.flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// NetStats snapshots the coordinator's wire-level traffic counters.
func (co *Coordinator) NetStats() NetStats { return co.nc.snapshot() }

// Halts delivers HALT reports as threads finish.
func (co *Coordinator) Halts() <-chan HaltMsg { return co.halts }

// Deaths delivers one error per node connection that failed before the
// coordinator initiated shutdown — a node process dying mid-run. A driver
// awaiting halts should select on it and fail the run loudly.
func (co *Coordinator) Deaths() <-chan error { return co.deaths }

// SubmitJob broadcasts one job's specs to every node and waits for every
// ack — the barrier that keeps a cross-node migration from reaching a node
// before that node installed the job's thread specs. Inject the job's
// contexts only after SubmitJob returns nil.
func (co *Coordinator) SubmitJob(spec *JobSpec, timeout time.Duration) error {
	_, err := gather(co, "job submit", spec.Job, FrameJobSubmit, spec, FrameJobAck, decodeJSON[JobAck], timeout)
	return err
}

// RetireJob broadcasts a JobDone and gathers one JobRetired per node —
// the barrier that keeps the coordinator from reusing the job's slots or
// memory region before every node cleared them. When d.Reclaim is set,
// the merged reply carries the retired region's event-log entries
// (removed from every node's shards; merge order is irrelevant because SC
// checking orders events by home and sequence).
func (co *Coordinator) RetireJob(d JobDone, timeout time.Duration) ([]Event, error) {
	rets, err := gather(co, "job retire", d.Job, FrameJobDone, &d, FrameJobRetired, decodeJSON[JobRetired], timeout)
	if err != nil {
		return nil, err
	}
	var events []Event
	for _, ret := range rets {
		events = append(events, ret.Events...)
	}
	return events, nil
}

// SampleCluster broadcasts a sample request and merges one NodeSample per
// node into a cluster-wide Sample: per-core rows sorted ascending by core,
// gauges summed, wire counters summed across the nodes plus the
// coordinator's own. Non-destructive and safe to call repeatedly while a
// run is live — the nodes answer on their reader goroutines without
// touching the data plane.
func (co *Coordinator) SampleCluster(timeout time.Duration) (Sample, error) {
	reps, err := gather(co, "sample", 0, FrameSampleReq, nil, FrameSampleRep, decodeJSON[NodeSample], timeout)
	if err != nil {
		return Sample{}, err
	}
	var merged Sample
	for _, ns := range reps {
		merged.Merge(ns.Sample)
	}
	// Nodes may own interleaved cores; re-sort by core, carrying the
	// aligned guest gauge along with its row.
	order := make([]int, len(merged.PerCore))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return merged.PerCore[order[i]].Core < merged.PerCore[order[j]].Core })
	perCore := make([]CoreMetrics, len(order))
	guests := make([]int64, len(order))
	for i, o := range order {
		perCore[i] = merged.PerCore[o]
		if o < len(merged.Guests) {
			guests[i] = merged.Guests[o]
		}
	}
	merged.PerCore, merged.Guests = perCore, guests
	merged.Net = merged.Net.Add(co.nc.snapshot())
	return merged, nil
}

// Sample implements MetricsSource for the whole cluster with a default
// gather timeout.
func (co *Coordinator) Sample() (Sample, error) {
	return co.SampleCluster(30 * time.Second)
}

// Collect broadcasts the collect request and gathers one reply per node,
// ordered by node.
func (co *Coordinator) Collect(timeout time.Duration) ([]CollectReply, error) {
	return gather(co, "collect", 0, FrameCollect, nil, FrameCollectChunk, mergeChunk, timeout)
}

// mergeChunk folds one streamed CollectChunk into node's reply; the Done
// chunk completes it.
func mergeChunk(node int, rep *CollectReply, blob []byte) (bool, error) {
	var ch CollectChunk
	if err := json.Unmarshal(blob, &ch); err != nil {
		return false, err
	}
	if ch.Node != node {
		return false, fmt.Errorf("collect chunk for node %d on node %d's connection", ch.Node, node)
	}
	if rep.Mem == nil {
		rep.Node, rep.Mem = node, make(map[uint32]uint32)
	}
	if ch.PerCore != nil {
		rep.PerCore = append(rep.PerCore, *ch.PerCore)
	}
	rep.Events = append(rep.Events, ch.Events...)
	maps.Copy(rep.Mem, ch.Mem) // chunk memory slices are address-disjoint (single-home invariant)
	if ch.Done {
		rep.Counters, rep.Net = ch.Counters, ch.Net
	}
	return ch.Done, nil
}

// Close tells every node to exit, then drops the coordinator's
// connections. The teardowns that follow are orderly: they no longer
// count as node deaths. Idempotent.
func (co *Coordinator) Close() {
	if co.down.Swap(true) {
		return
	}
	for _, c := range co.conns {
		if c != nil {
			c.w.appendKind(FrameShutdown, 0)
			c.c.Close()
		}
	}
}
