package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/machine"
	"repro/internal/serve"
	"repro/internal/transport"
)

// Span names. Each names the public call it brackets; the layer is the
// prefix before the dot.
const (
	spanRoot       = iota // one whole op: a Machine.Run or a serve.Run
	spanSendCtx           // transport.SendMigration / SendEviction
	spanRemote            // transport.Remote (for Local: includes the shard apply)
	spanShardApply        // the HandleMem handler machine.NewPart installed
	spanRunJob            // serve.Backend.RunJob
	spanRetire            // serve.Backend.Retire
	spanDrain             // serve.Backend.Drain
	spanSample            // serve.Backend.Sample
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	spanRoot:       "op",
	spanSendCtx:    "transport.send_ctx",
	spanRemote:     "transport.remote",
	spanShardApply: "machine.shard_apply",
	spanRunJob:     "serve.run_job",
	spanRetire:     "serve.retire",
	spanDrain:      "serve.drain",
	spanSample:     "serve.sample",
}

// span is one recorded call. Start and End are nanoseconds since the
// tracer's epoch; Parent is the index of the enclosing span in the same op
// (-1 for an op's root).
type span struct {
	Kind       uint8
	Op         int32
	Parent     int32
	Start, End int64
}

// tracer records the spans of one op at a time into a fixed buffer. Every
// call reserves its own slot with one atomic add, so the sixteen core
// goroutines of a run record without a lock. After the op, finishOp folds
// the op's spans into per-kind self times and keeps them for the dump until
// keepCap spans are kept.
type tracer struct {
	epoch time.Time
	buf   []span
	n     atomic.Int64
	lost  atomic.Int64
	op    int32
	root  int32

	// openRemote[t] is the slot of thread t's Remote span in flight: a
	// thread issues at most one remote access at a time, and for Local the
	// handler runs synchronously inside it, so the shard apply's parent is
	// found by the request's thread.
	openRemote []atomic.Int32

	kept    []span
	keepCap int

	ops       int
	total     time.Duration // Σ root durations of the finished ops
	self      [numSpanKinds]time.Duration
	calls     [numSpanKinds]int64
	busy      [numSpanKinds]time.Duration // Σ span durations, for per-call means
	durations [numSpanKinds][]float64     // per-call µs, kinds listed in keepDurations
}

const keepDurations = 1<<spanRunJob | 1<<spanRetire | 1<<spanDrain

func newTracer(capacity, keepCap, threads int) *tracer {
	return &tracer{
		epoch:      time.Now(),
		buf:        make([]span, capacity),
		openRemote: make([]atomic.Int32, threads),
		keepCap:    keepCap,
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin reserves a slot and stamps its start; -1 when the buffer is full.
func (t *tracer) begin(kind uint8, parent int32) int32 {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.buf)) {
		t.lost.Add(1)
		return -1
	}
	t.buf[i] = span{Kind: kind, Op: t.op, Parent: parent, Start: t.now()}
	return int32(i)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.buf[i].End = t.now()
	}
}

// startOp opens op's root span. Must not overlap another op.
func (t *tracer) startOp(op int) {
	t.n.Store(0)
	t.op = int32(op)
	t.root = t.begin(spanRoot, -1)
}

// finishOp closes the root span and folds the op's spans into the totals.
// Call it only once every goroutine of the op has stopped recording.
func (t *tracer) finishOp() {
	t.end(t.root)
	n := min(t.n.Load(), int64(len(t.buf)))
	spans := t.buf[:n]
	root := spans[t.root]
	t.ops++
	t.total += time.Duration(root.End - root.Start)
	for _, s := range spans[1:] {
		d := time.Duration(s.End - s.Start)
		t.calls[s.Kind]++
		t.busy[s.Kind] += d
		if keepDurations&(1<<s.Kind) != 0 {
			t.durations[s.Kind] = append(t.durations[s.Kind], d.Seconds()*1e6)
		}
	}
	self := attributeSelf(spans, root)
	for k := range self {
		t.self[k] += self[k]
	}
	if len(t.kept)+len(spans) <= t.keepCap {
		t.kept = append(t.kept, spans...)
	}
}

// attributeSelf splits the root's wall interval among the spans by a sweep
// over their start and end points. An instant goes to the spans active then
// that have no active child — split equally when several goroutines are
// inside calls at once — or to the root when none is. A span's self time is
// therefore its duration minus the part its children cover, and the self
// times of all kinds add up to the root's duration exactly.
func attributeSelf(spans []span, root span) [numSpanKinds]time.Duration {
	type event struct {
		t     int64
		start bool
		id    int32
	}
	evs := make([]event, 0, 2*len(spans))
	for i, s := range spans[1:] {
		id := int32(i + 1)
		evs = append(evs, event{max(s.Start, root.Start), true, id}, event{min(s.End, root.End), false, id})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		return !evs[i].start && evs[j].start // ends first at a tie
	})
	active := make([]bool, len(spans))
	children := make([]int32, len(spans)) // active children per span
	var leaves [numSpanKinds]int64        // active childless spans per kind
	var leafTotal int64
	var self [numSpanKinds]float64
	prev := root.Start
	for _, e := range evs {
		if dt := float64(e.t - prev); dt > 0 {
			if leafTotal == 0 {
				self[spanRoot] += dt
			} else {
				for k, n := range leaves {
					self[k] += dt * float64(n) / float64(leafTotal)
				}
			}
			prev = e.t
		}
		s := spans[e.id]
		p := s.Parent
		parentActive := p > 0 && active[p]
		if e.start {
			active[e.id] = true
			leaves[s.Kind]++
			leafTotal++
			if parentActive {
				if children[p] == 0 {
					leaves[spans[p].Kind]--
					leafTotal--
				}
				children[p]++
			}
		} else {
			active[e.id] = false
			if children[e.id] == 0 {
				leaves[s.Kind]--
				leafTotal--
			}
			if parentActive && children[p] > 0 {
				children[p]--
				if children[p] == 0 {
					leaves[spans[p].Kind]++
					leafTotal++
				}
			}
		}
	}
	self[spanRoot] += float64(root.End - prev)
	var out [numSpanKinds]time.Duration
	for k := range self {
		out[k] = time.Duration(self[k])
	}
	return out
}

// dump writes the kept spans as CSV: id within its op, kind, op, parent,
// start and end in ns since the tracer's epoch.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op,id,name,parent,start_ns,end_ns")
	id := 0
	for i, s := range t.kept {
		if i > 0 && s.Op != t.kept[i-1].Op {
			id = 0
		}
		fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d\n", s.Op, id, spanNames[s.Kind], s.Parent, s.Start, s.End)
		id++
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedTransport decorates a transport.Transport with spans around the
// calls the machine makes into it, and around the handlers it installs.
type tracedTransport struct {
	transport.Transport
	t           *tracer
	leaseInvals atomic.Int64
}

func (tt *tracedTransport) SendMigration(dst geom.CoreID, c transport.Context) error {
	s := tt.t.begin(spanSendCtx, tt.t.root)
	err := tt.Transport.SendMigration(dst, c)
	tt.t.end(s)
	return err
}

func (tt *tracedTransport) SendEviction(dst geom.CoreID, c transport.Context) error {
	s := tt.t.begin(spanSendCtx, tt.t.root)
	err := tt.Transport.SendEviction(dst, c)
	tt.t.end(s)
	return err
}

func (tt *tracedTransport) Remote(dst geom.CoreID, req transport.MemRequest) (transport.MemReply, error) {
	s := tt.t.begin(spanRemote, tt.t.root)
	tt.t.openRemote[req.Thread].Store(s)
	rep, err := tt.Transport.Remote(dst, req)
	tt.t.end(s)
	return rep, err
}

func (tt *tracedTransport) HandleMem(h func(core geom.CoreID, req transport.MemRequest) transport.MemReply) {
	tt.Transport.HandleMem(func(core geom.CoreID, req transport.MemRequest) transport.MemReply {
		s := tt.t.begin(spanShardApply, tt.t.openRemote[req.Thread].Load())
		rep := h(core, req)
		tt.t.end(s)
		return rep
	})
}

func (tt *tracedTransport) SendLeaseInval(inv transport.LeaseInval) error {
	tt.leaseInvals.Add(1)
	return tt.Transport.SendLeaseInval(inv)
}

// recordingBackend decorates a serve.Backend. It always times every
// RunJob and stamps the start of the Drain, which gives the run_ms and
// job_us metrics; with a tracer it also records spans, keeps the first
// jobs' events for the SC ledger, and samples the wire counters around the
// run.
type recordingBackend struct {
	serve.Backend
	t *tracer // nil: timestamps only

	jobStarts  []time.Time
	jobRuns    []float64 // ms per RunJob
	drainStart time.Time
	threads    int // job threads injected

	keepEvents int
	captured   []capturedJob
	netStart   transport.NetStats
	netEnd     transport.NetStats
}

// capturedJob is one retired job's initial image and event log: the input
// of its machine.CheckSCFrom pass.
type capturedJob struct {
	mem    map[uint32]uint32
	events []machine.Event
}

func (b *recordingBackend) RunJob(j *serve.Job, timeout time.Duration) ([]transport.HaltMsg, error) {
	start := time.Now()
	b.jobStarts = append(b.jobStarts, start)
	b.threads += len(j.Threads)
	s := int32(-1)
	if b.t != nil {
		s = b.t.begin(spanRunJob, b.t.root)
	}
	h, err := b.Backend.RunJob(j, timeout)
	if b.t != nil {
		b.t.end(s)
	}
	b.jobRuns = append(b.jobRuns, time.Since(start).Seconds()*1e3)
	return h, err
}

func (b *recordingBackend) Retire(j *serve.Job, timeout time.Duration) ([]machine.Event, error) {
	if b.t == nil {
		return b.Backend.Retire(j, timeout)
	}
	s := b.t.begin(spanRetire, b.t.root)
	ev, err := b.Backend.Retire(j, timeout)
	b.t.end(s)
	if err == nil && len(b.captured) < b.keepEvents {
		b.captured = append(b.captured, capturedJob{mem: j.Mem, events: ev})
	}
	return ev, err
}

func (b *recordingBackend) Sample() (transport.Sample, error) {
	if b.t == nil {
		return b.Backend.Sample()
	}
	s := b.t.begin(spanSample, b.t.root)
	smp, err := b.Backend.Sample()
	b.t.end(s)
	return smp, err
}

func (b *recordingBackend) Drain(timeout time.Duration) (*serve.DrainResult, error) {
	b.drainStart = time.Now()
	if b.t == nil {
		return b.Backend.Drain(timeout)
	}
	// The closing wire sample, before the drain's own collection traffic;
	// its round trip is a serve.sample span, not serve self time.
	if smp, err := b.Sample(); err == nil {
		b.netEnd = smp.Net
	}
	s := b.t.begin(spanDrain, b.t.root)
	dr, err := b.Backend.Drain(timeout)
	b.t.end(s)
	return dr, err
}

// jobIntervals returns the µs between successive RunJob starts, the last
// job's running until the Drain: all host work spent per job.
func (b *recordingBackend) jobIntervals() []float64 {
	out := make([]float64, 0, len(b.jobStarts))
	for i, s := range b.jobStarts {
		next := b.drainStart
		if i+1 < len(b.jobStarts) {
			next = b.jobStarts[i+1]
		}
		out = append(out, next.Sub(s).Seconds()*1e6)
	}
	return out
}
