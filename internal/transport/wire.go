package transport

// The v2 data plane: every TCP connection carries a stream of *batches*,
// each a fixed 8-byte header followed by a run of self-delimiting frames.
// Contexts, evictions and remote-access round trips are fixed-size
// canonical binary (no reflection, no per-message allocation); the control
// plane (Load/Halt/Collect replies) rides the same framing as
// length-prefixed JSON blobs. Outbound frames coalesce in a per-connection
// batch buffer — built over pooled storage, written with one syscall per
// batch — so a node flushes all ready messages per scheduling cycle in a
// single write. DESIGN.md §6 documents the layout and how batch delivery
// interacts with the inbox wire credits.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
)

// FrameKind classifies one wire frame.
type FrameKind uint8

// The frame kinds. Migration, eviction, memory request and memory reply are
// the data plane; the rest are the coordinator's control plane. The job
// frames carry the serve lifecycle: JobSubmit broadcasts one job's thread
// specs, JobAck confirms a node installed them (the coordinator injects the
// job's contexts only after every node acked — a migration must never reach
// a node before its specs did), JobDone retires the job's slots, and
// JobRetired confirms the retirement and carries back the job's reclaimed
// shard events. LoadAck, Heartbeat and CollectChunk shard the coordinator's
// control plane at scale: LoadAck (a JobAck for the load's initial job)
// surfaces a node's actual load error (or readiness) instead of a bare
// connection death, Heartbeat streams node
// liveness and wire metrics asynchronously, and CollectChunk streams a
// node's post-run state incrementally, one core at a time.
const (
	FrameHello FrameKind = iota + 1
	FrameMigration
	FrameEviction
	FrameMemReq
	FrameMemRep
	FrameLoad
	FrameHalt
	FrameCollect
	_ // retired single-blob collect reply; kind values are wire format, so 9 stays reserved
	FrameShutdown
	FrameJobSubmit
	FrameJobAck
	FrameJobDone
	FrameLoadAck
	FrameHeartbeat
	FrameCollectChunk
	FrameJobRetired
	// FrameSampleReq asks a node for one non-destructive metrics Sample
	// (kind byte only); FrameSampleRep carries the NodeSample back. The
	// sample plane is advisory — like heartbeats, its replies never enter a
	// deterministic surface unless the sampler itself is deterministic (the
	// serve loop's virtual-time ticks, where the machine is quiescent).
	FrameSampleReq
	FrameSampleRep
	// FrameLeaseRep is a remote-read reply that also grants a read lease:
	// the same id/value as FrameMemRep plus the granted window, so plain
	// replies keep their compact encoding. FrameLeaseInval carries a
	// write-update to a lease holder: the new value of a held word. It is
	// advisory for correctness (holders expire on their own virtual
	// clocks) but keeps cached values within one lease window of the home
	// copy.
	FrameLeaseRep
	FrameLeaseInval
)

const (
	// WireVersion is the data-plane protocol version carried in every batch
	// header; a mismatch is protocol corruption.
	WireVersion = 2
	// BatchHeaderLen is the fixed batch header: u32 payload length, u16
	// frame count, u8 version, u8 reserved (zero).
	BatchHeaderLen = 8
	// MaxBatchBytes caps a batch payload; a header declaring more is
	// rejected as malformed rather than honored as an allocation request.
	MaxBatchBytes = 64 << 20

	// memReqBody is the fixed body size of a FrameMemReq after the kind
	// byte: dst u32 + id u64 + thread u32 + tseq u64 + op u8 + addr u32 +
	// arg u32 + from u32 + lease u16.
	memReqBody = 4 + 8 + 4 + 8 + 1 + 4 + 4 + 4 + 2
	// memRepBody is the fixed body size of a FrameMemRep: id u64 + value u32.
	memRepBody = 8 + 4
	// leaseRepBody is the fixed body size of a FrameLeaseRep: id u64 +
	// value u32 + lease u16.
	leaseRepBody = 8 + 4 + 2
	// leaseInvalBody is the fixed body size of a FrameLeaseInval: dst u32 +
	// addr u32 + value u32.
	leaseInvalBody = 4 + 4 + 4

	// MemReqFrameBytes and MemRepFrameBytes are the full on-wire sizes
	// (kind byte included) of one remote-access request and reply frame —
	// the payloads the cost model charges for a remote round trip, exported
	// so the machine's per-thread cycle accounting bills exactly what the
	// wire would carry. LeaseRepFrameBytes is the reply size when the home
	// grants a lease; LeaseInvalFrameBytes is one write-update to a holder.
	MemReqFrameBytes     = 1 + memReqBody
	MemRepFrameBytes     = 1 + memRepBody
	LeaseRepFrameBytes   = 1 + leaseRepBody
	LeaseInvalFrameBytes = 1 + leaseInvalBody

	// flushThreshold force-flushes a batch buffer that grows past this many
	// bytes even between explicit Flush calls, bounding buffer memory.
	flushThreshold = 256 << 10
	// maxBatchFrames is the u16 frame-count ceiling per batch.
	maxBatchFrames = 1<<16 - 1
	// maxPendingBytes bounds how far a batch buffer may grow while another
	// goroutine is mid-flush; producers that would exceed it wait for the
	// flusher to swap the buffer out.
	maxPendingBytes = 8 << 20
	// maxBlobBytes caps one control blob so that blob + header + every
	// frame already coalesced in the buffer (bounded by maxPendingBytes
	// plus one in-flight frame) still fits a legal MaxBatchBytes batch.
	maxBlobBytes = MaxBatchBytes - maxPendingBytes - (1 << 17)
)

// ErrMalformedFrame tags every structural wire error: truncated or
// oversized batches, unknown frame kinds, bad lengths. Receivers treat it
// as protocol corruption — fail loudly, never hang.
var ErrMalformedFrame = errors.New("transport: malformed frame")

func malformedf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrMalformedFrame}, args...)...)
}

// Frame is one decoded wire frame. Ctx and Blob are views into the decode
// buffer: valid only until the emit callback returns.
type Frame struct {
	Kind FrameKind
	From int32       // FrameHello: sender's node index, or coordinatorID
	Dst  geom.CoreID // FrameMigration, FrameEviction, FrameMemReq
	ID   uint64      // FrameMemReq, FrameMemRep
	Ctx  []byte      // FrameMigration, FrameEviction: canonical Context bytes
	Req  MemRequest  // FrameMemReq
	Rep  MemReply    // FrameMemRep, FrameLeaseRep
	Inv  LeaseInval  // FrameLeaseInval
	Blob []byte      // control-plane kinds (Load, Halt, job/ack/heartbeat/chunk frames): JSON body
}

// The per-kind frame encoders below are shared by AppendFrame and the
// batchWriter's hot-path append methods, so the wire has exactly one
// encoder per layout (the only divergence is the context body's source:
// the writer serializes a Context in place via AppendWire — itself the
// canonical context encoder — where AppendFrame copies pre-encoded bytes).

// appendCtxFrameHeader starts a migration/eviction frame: kind + dst. The
// context body that follows is self-delimiting (its own SchedLen header is
// the only length on the wire).
func appendCtxFrameHeader(b []byte, kind FrameKind, dst geom.CoreID) []byte {
	b = append(b, byte(kind))
	return binary.BigEndian.AppendUint32(b, uint32(dst))
}

func appendHelloFrame(b []byte, from int32) []byte {
	b = append(b, byte(FrameHello))
	return binary.BigEndian.AppendUint32(b, uint32(from))
}

func appendMemReqFrame(b []byte, dst geom.CoreID, id uint64, r MemRequest) []byte {
	b = append(b, byte(FrameMemReq))
	b = binary.BigEndian.AppendUint32(b, uint32(dst))
	b = binary.BigEndian.AppendUint64(b, id)
	b = binary.BigEndian.AppendUint32(b, uint32(r.Thread))
	b = binary.BigEndian.AppendUint64(b, uint64(r.TSeq))
	b = append(b, byte(r.Op))
	b = binary.BigEndian.AppendUint32(b, r.Addr)
	b = binary.BigEndian.AppendUint32(b, r.Arg)
	b = binary.BigEndian.AppendUint32(b, r.From)
	return binary.BigEndian.AppendUint16(b, r.Lease)
}

func appendMemRepFrame(b []byte, id uint64, rep MemReply) []byte {
	b = append(b, byte(FrameMemRep))
	b = binary.BigEndian.AppendUint64(b, id)
	return binary.BigEndian.AppendUint32(b, rep.Value)
}

func appendLeaseRepFrame(b []byte, id uint64, rep MemReply) []byte {
	b = append(b, byte(FrameLeaseRep))
	b = binary.BigEndian.AppendUint64(b, id)
	b = binary.BigEndian.AppendUint32(b, rep.Value)
	return binary.BigEndian.AppendUint16(b, rep.Lease)
}

func appendLeaseInvalFrame(b []byte, inv LeaseInval) []byte {
	b = append(b, byte(FrameLeaseInval))
	b = binary.BigEndian.AppendUint32(b, uint32(inv.Dst))
	b = binary.BigEndian.AppendUint32(b, inv.Addr)
	return binary.BigEndian.AppendUint32(b, inv.Value)
}

func appendBlobFrame(b []byte, kind FrameKind, blob []byte) []byte {
	b = append(b, byte(kind))
	b = binary.BigEndian.AppendUint32(b, uint32(len(blob)))
	return append(b, blob...)
}

// AppendFrame appends f's wire encoding (kind byte + body) to b.
func AppendFrame(b []byte, f Frame) []byte {
	switch f.Kind {
	case FrameHello:
		return appendHelloFrame(b, f.From)
	case FrameMigration, FrameEviction:
		return append(appendCtxFrameHeader(b, f.Kind, f.Dst), f.Ctx...)
	case FrameMemReq:
		return appendMemReqFrame(b, f.Dst, f.ID, f.Req)
	case FrameMemRep:
		return appendMemRepFrame(b, f.ID, f.Rep)
	case FrameLeaseRep:
		return appendLeaseRepFrame(b, f.ID, f.Rep)
	case FrameLeaseInval:
		return appendLeaseInvalFrame(b, f.Inv)
	case FrameLoad, FrameHalt, FrameJobSubmit, FrameJobAck, FrameJobDone,
		FrameLoadAck, FrameHeartbeat, FrameCollectChunk, FrameJobRetired, FrameSampleRep:
		return appendBlobFrame(b, f.Kind, f.Blob)
	case FrameCollect, FrameShutdown, FrameSampleReq:
		return append(b, byte(f.Kind)) // kind byte only
	default:
		panic(fmt.Sprintf("transport: AppendFrame of unknown kind %d", f.Kind))
	}
}

// parseFrame decodes the first frame of b and returns it with the number
// of bytes consumed. Ctx/Blob are views into b.
func parseFrame(b []byte) (Frame, int, error) {
	if len(b) == 0 {
		return Frame{}, 0, malformedf("empty frame")
	}
	f := Frame{Kind: FrameKind(b[0])}
	p := b[1:]
	need := func(n int) error {
		if len(p) < n {
			return malformedf("frame kind %d truncated: %d of %d body bytes", f.Kind, len(p), n)
		}
		return nil
	}
	switch f.Kind {
	case FrameHello:
		if err := need(4); err != nil {
			return Frame{}, 0, err
		}
		f.From = int32(binary.BigEndian.Uint32(p))
		return f, 1 + 4, nil
	case FrameMigration, FrameEviction:
		if err := need(4 + ContextWireBytes); err != nil {
			return Frame{}, 0, err
		}
		f.Dst = geom.CoreID(binary.BigEndian.Uint32(p))
		ctx := p[4:]
		// The context is self-delimiting: its SchedLen header declares the
		// trailer. DecodeContext re-validates the total.
		total := ContextWireBytes + int(binary.BigEndian.Uint16(ctx[schedLenOffset:]))
		if len(ctx) < total {
			return Frame{}, 0, malformedf("context frame truncated: %d of %d bytes", len(ctx), total)
		}
		f.Ctx = ctx[:total]
		return f, 1 + 4 + total, nil
	case FrameMemReq:
		if err := need(memReqBody); err != nil {
			return Frame{}, 0, err
		}
		f.Dst = geom.CoreID(binary.BigEndian.Uint32(p))
		f.ID = binary.BigEndian.Uint64(p[4:])
		f.Req.Thread = int32(binary.BigEndian.Uint32(p[12:]))
		f.Req.TSeq = int64(binary.BigEndian.Uint64(p[16:]))
		if p[24] > byte(OpSwap) {
			return Frame{}, 0, malformedf("memory op %d unknown", p[24])
		}
		f.Req.Op = MemOp(p[24])
		f.Req.Addr = binary.BigEndian.Uint32(p[25:])
		f.Req.Arg = binary.BigEndian.Uint32(p[29:])
		f.Req.From = binary.BigEndian.Uint32(p[33:])
		f.Req.Lease = binary.BigEndian.Uint16(p[37:])
		return f, 1 + memReqBody, nil
	case FrameMemRep:
		if err := need(memRepBody); err != nil {
			return Frame{}, 0, err
		}
		f.ID = binary.BigEndian.Uint64(p)
		f.Rep.Value = binary.BigEndian.Uint32(p[8:])
		return f, 1 + memRepBody, nil
	case FrameLeaseRep:
		if err := need(leaseRepBody); err != nil {
			return Frame{}, 0, err
		}
		f.ID = binary.BigEndian.Uint64(p)
		f.Rep.Value = binary.BigEndian.Uint32(p[8:])
		f.Rep.Lease = binary.BigEndian.Uint16(p[12:])
		return f, 1 + leaseRepBody, nil
	case FrameLeaseInval:
		if err := need(leaseInvalBody); err != nil {
			return Frame{}, 0, err
		}
		f.Inv.Dst = geom.CoreID(binary.BigEndian.Uint32(p))
		f.Inv.Addr = binary.BigEndian.Uint32(p[4:])
		f.Inv.Value = binary.BigEndian.Uint32(p[8:])
		return f, 1 + leaseInvalBody, nil
	case FrameLoad, FrameHalt, FrameJobSubmit, FrameJobAck, FrameJobDone,
		FrameLoadAck, FrameHeartbeat, FrameCollectChunk, FrameJobRetired, FrameSampleRep:
		if err := need(4); err != nil {
			return Frame{}, 0, err
		}
		n := int(binary.BigEndian.Uint32(p))
		if n > MaxBatchBytes || len(p)-4 < n {
			return Frame{}, 0, malformedf("blob frame declares %d bytes, %d present", n, len(p)-4)
		}
		f.Blob = p[4 : 4+n]
		return f, 1 + 4 + n, nil
	case FrameCollect, FrameShutdown, FrameSampleReq:
		return f, 1, nil
	default:
		return Frame{}, 0, malformedf("unknown frame kind %d", f.Kind)
	}
}

// AppendBatch appends one whole batch — header plus every frame — to b.
func AppendBatch(b []byte, frames []Frame) []byte {
	if len(frames) > maxBatchFrames {
		panic(fmt.Sprintf("transport: %d frames exceed the u16 batch count", len(frames)))
	}
	start := len(b)
	b = append(b, make([]byte, BatchHeaderLen)...)
	for _, f := range frames {
		b = AppendFrame(b, f)
	}
	finishBatch(b[start:], len(frames))
	return b
}

// finishBatch patches the header of a fully appended batch in place. b must
// begin at the header.
func finishBatch(b []byte, count int) {
	binary.BigEndian.PutUint32(b, uint32(len(b)-BatchHeaderLen))
	binary.BigEndian.PutUint16(b[4:], uint16(count))
	b[6] = WireVersion
	b[7] = 0
}

// parseBatchHeader validates a batch header and returns the payload length
// and frame count.
func parseBatchHeader(h []byte) (payloadLen, count int, err error) {
	payloadLen = int(binary.BigEndian.Uint32(h))
	count = int(binary.BigEndian.Uint16(h[4:]))
	if h[6] != WireVersion {
		return 0, 0, malformedf("batch version %d, want %d", h[6], WireVersion)
	}
	if h[7] != 0 {
		return 0, 0, malformedf("batch reserved byte %d, want 0", h[7])
	}
	if payloadLen > MaxBatchBytes {
		return 0, 0, malformedf("batch declares %d payload bytes, above the %d-byte cap", payloadLen, MaxBatchBytes)
	}
	return payloadLen, count, nil
}

// parseBatchPayload walks count frames through payload, calling emit for
// each; the entire payload must be consumed exactly.
func parseBatchPayload(payload []byte, count int, emit func(Frame) error) error {
	for i := 0; i < count; i++ {
		f, n, err := parseFrame(payload)
		if err != nil {
			return err
		}
		payload = payload[n:]
		if err := emit(f); err != nil {
			return err
		}
	}
	if len(payload) != 0 {
		return malformedf("%d bytes of trailing garbage after the declared frames", len(payload))
	}
	return nil
}

// DecodeBatch parses b as exactly one batch (header + payload), calling
// emit for every frame with views into b. Any structural defect — version
// or length mismatch, unknown kind, truncation, trailing bytes — returns an
// error wrapping ErrMalformedFrame. Accepted batches re-encode
// byte-identically via AppendBatch (the encoding is canonical).
func DecodeBatch(b []byte, emit func(Frame) error) error {
	if len(b) < BatchHeaderLen {
		return malformedf("batch header %d of %d bytes", len(b), BatchHeaderLen)
	}
	payloadLen, count, err := parseBatchHeader(b[:BatchHeaderLen])
	if err != nil {
		return err
	}
	if len(b)-BatchHeaderLen != payloadLen {
		return malformedf("batch declares %d payload bytes, %d present", payloadLen, len(b)-BatchHeaderLen)
	}
	return parseBatchPayload(b[BatchHeaderLen:], count, emit)
}

// NetStats is one endpoint's wire-level traffic counters. BatchesSent
// counts write syscalls (one per flushed batch); MsgsSent counts frames, so
// MsgsSent/BatchesSent is the realized coalescing factor.
type NetStats struct {
	BatchesSent int64 `json:"batches_sent"`
	MsgsSent    int64 `json:"msgs_sent"`
	BytesSent   int64 `json:"bytes_sent"`
	BatchesRecv int64 `json:"batches_recv"`
	MsgsRecv    int64 `json:"msgs_recv"`
	BytesRecv   int64 `json:"bytes_recv"`
}

// Add returns the field-wise sum of s and o.
func (s NetStats) Add(o NetStats) NetStats {
	s.BatchesSent += o.BatchesSent
	s.MsgsSent += o.MsgsSent
	s.BytesSent += o.BytesSent
	s.BatchesRecv += o.BatchesRecv
	s.MsgsRecv += o.MsgsRecv
	s.BytesRecv += o.BytesRecv
	return s
}

// Sub returns the field-wise difference s − o, for deltas between two
// cumulative snapshots.
func (s NetStats) Sub(o NetStats) NetStats {
	s.BatchesSent -= o.BatchesSent
	s.MsgsSent -= o.MsgsSent
	s.BytesSent -= o.BytesSent
	s.BatchesRecv -= o.BatchesRecv
	s.MsgsRecv -= o.MsgsRecv
	s.BytesRecv -= o.BytesRecv
	return s
}

// MsgsPerBatch is the realized send-side coalescing factor: frames shipped
// per write syscall.
func (s NetStats) MsgsPerBatch() float64 {
	if s.BatchesSent == 0 {
		return 0
	}
	return float64(s.MsgsSent) / float64(s.BatchesSent)
}

// netCounters is the atomic backing store behind NetStats, shared by every
// connection of one endpoint.
type netCounters struct {
	batchesSent, msgsSent, bytesSent atomic.Int64
	batchesRecv, msgsRecv, bytesRecv atomic.Int64
}

func (c *netCounters) snapshot() NetStats {
	return NetStats{
		BatchesSent: c.batchesSent.Load(),
		MsgsSent:    c.msgsSent.Load(),
		BytesSent:   c.bytesSent.Load(),
		BatchesRecv: c.batchesRecv.Load(),
		MsgsRecv:    c.msgsRecv.Load(),
		BytesRecv:   c.bytesRecv.Load(),
	}
}

// batchBufPool recycles batch buffers across connections and runs; every
// buffer starts with the BatchHeaderLen reserved bytes already in place.
var batchBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, BatchHeaderLen, 4<<10)
		return &b
	},
}

func getBatchBuf() []byte {
	return (*batchBufPool.Get().(*[]byte))[:BatchHeaderLen]
}

func putBatchBuf(b []byte) {
	if cap(b) > 1<<20 {
		return // don't let one oversized run pin memory in the pool
	}
	b = b[:BatchHeaderLen]
	batchBufPool.Put(&b)
}

// batchWriter coalesces outbound frames for one connection. Frames append
// under the mutex into a pooled buffer whose first BatchHeaderLen bytes are
// reserved for the header; a flush patches the header and ships the whole
// batch with one Write. Deferred frames (migrations, evictions) wait for
// the machine's Flush; latency-critical frames (remote accesses, replies,
// control) flush immediately — carrying every deferred frame ahead of them
// in the same syscall. The flusher-role loop keeps exactly one goroutine
// writing while later enqueuers keep appending, so bursts coalesce even
// between explicit flushes.
type batchWriter struct {
	c  net.Conn
	nc *netCounters

	mu       sync.Mutex
	cond     *sync.Cond // signaled when the flusher swaps the buffer out
	buf      []byte     // nil when empty; otherwise header-prefixed frames
	count    int
	flushing bool
	err      error // sticky: first write failure poisons the connection
}

// init wires the writer in place (the cond must reference the writer's
// own mutex at its final address — a batchWriter is never copied after
// init).
func (w *batchWriter) init(c net.Conn, nc *netCounters) {
	w.c = c
	w.nc = nc
	w.cond = sync.NewCond(&w.mu)
}

// begin locks the writer and readies the buffer for one append. On success
// the lock is HELD; the caller must follow with finish. When another
// goroutine is mid-flush and the pending buffer is already at its frame or
// byte cap, begin waits for the flusher to swap it out — the u16 batch
// frame count must never be exceeded, no matter how slow a Write is.
func (w *batchWriter) begin() error {
	w.mu.Lock()
	for w.err == nil && w.flushing && (w.count >= maxBatchFrames || len(w.buf) >= maxPendingBytes) {
		w.cond.Wait()
	}
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	if w.buf == nil {
		w.buf = getBatchBuf()
	}
	return nil
}

// finish completes an append started by begin (lock held): it counts the
// frame, enforces the buffer caps, and flushes when asked. It releases the
// lock.
func (w *batchWriter) finish(flushNow bool) error {
	w.count++
	if !flushNow && len(w.buf) < flushThreshold && w.count < maxBatchFrames {
		w.mu.Unlock()
		return nil
	}
	return w.flushLocked()
}

// flush ships everything buffered. Safe to call concurrently; if another
// goroutine is mid-flush it will pick up frames appended meanwhile, so a
// caller may return immediately.
func (w *batchWriter) flush() error {
	w.mu.Lock()
	return w.flushLocked()
}

// flushLocked drains the buffer with one Write per accumulated batch. The
// lock is held on entry and released on return. While the active flusher is
// inside Write, concurrent enqueuers keep appending to a fresh buffer; the
// flusher loops until nothing is pending, which is what coalesces bursts
// into few syscalls.
func (w *batchWriter) flushLocked() error {
	if w.flushing || w.count == 0 || w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	w.flushing = true
	for w.count > 0 && w.err == nil {
		buf, count := w.buf, w.count
		w.buf, w.count = nil, 0
		w.cond.Broadcast() // producers waiting on the caps may proceed
		w.mu.Unlock()

		finishBatch(buf, count)
		_, err := w.c.Write(buf)
		if err == nil {
			w.nc.batchesSent.Add(1)
			w.nc.msgsSent.Add(int64(count))
			w.nc.bytesSent.Add(int64(len(buf)))
		}
		putBatchBuf(buf)

		w.mu.Lock()
		if err != nil && w.err == nil {
			w.err = err
		}
	}
	w.flushing = false
	w.cond.Broadcast() // release cap-waiters on error exit, too
	err := w.err
	w.mu.Unlock()
	return err
}

// appendCtx enqueues a context frame, deferred for the next Flush — the
// data-plane coalescing path. The context encodes straight into the batch
// buffer: no intermediate slice.
func (w *batchWriter) appendCtx(kind FrameKind, dst geom.CoreID, ctx Context) error {
	if err := w.begin(); err != nil {
		return err
	}
	w.buf = appendCtxFrameHeader(w.buf, kind, dst)
	w.buf = ctx.AppendWire(w.buf)
	return w.finish(false)
}

// appendMemReq enqueues a remote-access request and flushes: the sender is
// about to block on the reply, so the request (and everything deferred
// before it) must reach the wire now.
func (w *batchWriter) appendMemReq(dst geom.CoreID, id uint64, req MemRequest) error {
	if err := w.begin(); err != nil {
		return err
	}
	w.buf = appendMemReqFrame(w.buf, dst, id, req)
	return w.finish(true)
}

// appendMemRep enqueues a remote-access reply and flushes (the requester is
// blocked on it). Concurrent replies coalesce through the flusher role.
func (w *batchWriter) appendMemRep(id uint64, rep MemReply) error {
	if err := w.begin(); err != nil {
		return err
	}
	w.buf = appendMemRepFrame(w.buf, id, rep)
	return w.finish(true)
}

// appendLeaseRep enqueues a lease-granting remote-access reply and
// flushes (the requester is blocked on it, exactly like appendMemRep).
func (w *batchWriter) appendLeaseRep(id uint64, rep MemReply) error {
	if err := w.begin(); err != nil {
		return err
	}
	w.buf = appendLeaseRepFrame(w.buf, id, rep)
	return w.finish(true)
}

// appendLeaseInval enqueues a write-update to a lease holder and flushes:
// the writer's shard op has already completed, so the update must not sit
// behind the next machine Flush or the holder could serve a value more
// than one window stale.
func (w *batchWriter) appendLeaseInval(inv LeaseInval) error {
	if err := w.begin(); err != nil {
		return err
	}
	w.buf = appendLeaseInvalFrame(w.buf, inv)
	return w.finish(true)
}

// appendBlob enqueues a control frame with a JSON body and flushes. A blob
// that could not fit a legal batch is rejected here, at the point of
// origin, instead of being shipped for every receiver to kill the run as
// protocol corruption.
func (w *batchWriter) appendBlob(kind FrameKind, blob []byte) error {
	if len(blob) > maxBlobBytes {
		return fmt.Errorf("transport: %d-byte control blob exceeds the %d-byte limit", len(blob), maxBlobBytes)
	}
	if err := w.begin(); err != nil {
		return err
	}
	w.buf = appendBlobFrame(w.buf, kind, blob)
	return w.finish(true)
}

// appendKind enqueues a body-less frame (hello, collect, shutdown) and
// flushes.
func (w *batchWriter) appendKind(kind FrameKind, from int32) error {
	if err := w.begin(); err != nil {
		return err
	}
	if kind == FrameHello {
		w.buf = appendHelloFrame(w.buf, from)
	} else {
		w.buf = append(w.buf, byte(kind))
	}
	return w.finish(true)
}

// readBatches drains batches from br until an error, dispatching every
// frame to emit. Structural defects return an error wrapping
// ErrMalformedFrame (including a connection cut mid-batch, which is
// indistinguishable from truncation); a connection closed at a batch
// boundary returns io.EOF. The payload buffer is reused across batches, so
// emit must not retain Frame views.
func readBatches(br *bufio.Reader, nc *netCounters, emit func(Frame) error) error {
	var hdr [BatchHeaderLen]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.ErrUnexpectedEOF {
				return malformedf("connection cut mid-header")
			}
			return err
		}
		payloadLen, count, err := parseBatchHeader(hdr[:])
		if err != nil {
			return err
		}
		if cap(payload) < payloadLen {
			payload = make([]byte, payloadLen)
		}
		payload = payload[:payloadLen]
		if _, err := io.ReadFull(br, payload); err != nil {
			return malformedf("batch truncated: %v", err)
		}
		nc.batchesRecv.Add(1)
		nc.msgsRecv.Add(int64(count))
		nc.bytesRecv.Add(int64(BatchHeaderLen + payloadLen))
		if err := parseBatchPayload(payload, count, emit); err != nil {
			return err
		}
	}
}
