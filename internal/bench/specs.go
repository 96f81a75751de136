package bench

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/machine"
	"repro/internal/placement"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/workload"
	"repro/internal/wprog"
)

// benchContext builds the context every codec benchmark serializes: a full
// register file plus (optionally) genuine history-predictor state, so the
// measured bytes are exactly what a migration under history:N ships.
func benchContext(withSched bool) transport.Context {
	c := transport.Context{Thread: 3, Native: 1, MemSeq: 12345, Flags: transport.FlagObserved}
	c.Arch.PC = 42
	for i := range c.Arch.Regs {
		c.Arch.Regs[i] = uint32(i) * 0x9E3779B9
	}
	if withSched {
		p := core.NewHistory(2).NewPredictor(0)
		p.Observe(1, 0x1000)
		p.Observe(1, 0x1040)
		p.Observe(2, 0x2000)
		p.Observe(3, 0x2040)
		c.Sched = p.AppendState(nil)
	}
	return c
}

// benchBatchFrames builds the frame batch the frame-layer benchmarks
// encode/decode: a realistic flush of one scheduling cycle — migrations
// carrying predictor state, an eviction, a remote-access round trip.
func benchBatchFrames() []transport.Frame {
	ctx := benchContext(true).EncodeWire()
	var frames []transport.Frame
	for i := 0; i < 6; i++ {
		frames = append(frames, transport.Frame{Kind: transport.FrameMigration, Dst: geom.CoreID(i % 4), Ctx: ctx})
	}
	frames = append(frames,
		transport.Frame{Kind: transport.FrameEviction, Dst: 2, Ctx: ctx},
		transport.Frame{Kind: transport.FrameMemReq, Dst: 1, ID: 7,
			Req: transport.MemRequest{Thread: 3, TSeq: 99, Op: transport.OpFAA, Addr: 64, Arg: 1}},
		transport.Frame{Kind: transport.FrameMemRep, ID: 7, Rep: transport.MemReply{Value: 41}},
	)
	return frames
}

// benchWorkload is one registry workload the machine benchmarks drive over
// both transports.
type benchWorkload struct {
	lit        machine.Litmus
	guests     int
	scheme     core.Scheme // channel transport
	schemeName string      // TCP transport (parsed on each node)
	full       bool        // skipped under -short
	gated      bool        // allocs/op is a CI invariant on both transports
}

// benchWorkloads returns the registry workloads, sized down under short.
// All run on the 2x2 mesh with striped:64 placement — the M3 platform, so
// the micro-workloads' message counts are the model-validated ones.
func benchWorkloads(short bool) []benchWorkload {
	counter, spinlock := machine.AtomicCounterLitmus(4, 40), machine.SpinlockLitmus(4, 20)
	if short {
		counter, spinlock = machine.AtomicCounterLitmus(4, 10), machine.SpinlockLitmus(2, 6)
	}
	wls := []benchWorkload{
		{lit: counter, guests: 2, scheme: core.AlwaysMigrate{}, schemeName: "always-migrate"},
		{lit: spinlock, guests: 2, scheme: core.AlwaysMigrate{}, schemeName: "always-migrate"},
		// The predictor-state trailer rides every migration under history:2.
		{lit: machine.RandomLitmus(1, machine.RandOpts{PrivateWrites: true}),
			guests: 0, scheme: core.NewHistory(2), schemeName: "history:2"},
	}
	for i, lit := range sim.M3MicroLitmuses() {
		wls = append(wls, benchWorkload{
			lit: lit, scheme: core.AlwaysMigrate{}, schemeName: "always-migrate",
			full: i > 0, // pingpong always; runs/walk only in full mode
		})
	}
	// The compiled SPLASH-2 stand-ins (internal/wprog): end-to-end
	// application-shaped traffic — ocean under the stateful history scheme
	// so every migration ships predictor state, fft and barnes under pure
	// EM². All three are in the short (CI) set.
	return append(wls, compiledWorkloads(short)...)
}

// compiledWorkloads lowers the three flagship workload traces to ISA
// programs at benchmark sizes. Compilation runs once per sizing (it is
// invoked from inside benchmark bodies via shortVariant, where repeated
// trace generation would pollute the timings).
var compiledWorkloads = func() func(short bool) []benchWorkload {
	compile := func(short bool) []benchWorkload {
		specs := []struct {
			name   string // workload to compile
			bench  string // registry name ("" = workload name)
			cfg    workload.Config
			scheme core.Scheme
			sname  string
			gated  bool
		}{
			{"ocean", "", workload.Config{Threads: 4, Scale: 16, Iters: 1, Seed: 2011}, core.NewHistory(2), "history:2", false},
			// The same trace under the hybrid coherence scheme: leased
			// remote reads plus history-driven write migration. Gated —
			// the lease path must never regress the run's allocation
			// budget (both sides hold per-core caches and the shard
			// lease table at fixed capacity).
			{"ocean", "ocean-hybrid", workload.Config{Threads: 4, Scale: 16, Iters: 1, Seed: 2011}, core.NewHybrid(16), "hybrid:16", true},
			{"fft", "", workload.Config{Threads: 4, Scale: 16, Iters: 1, Seed: 2011}, core.AlwaysMigrate{}, "always-migrate", false},
			{"barnes", "", workload.Config{Threads: 4, Scale: 8, Iters: 1, Seed: 2011}, core.AlwaysMigrate{}, "always-migrate", false},
		}
		if short {
			for i := range specs {
				specs[i].cfg.Scale /= 2
			}
		}
		var out []benchWorkload
		for _, s := range specs {
			c, err := wprog.CompileWorkload(s.name, s.cfg, benchMesh().Cores())
			if err != nil {
				panic(fmt.Sprintf("bench: compile %s: %v", s.name, err))
			}
			lit := c.Litmus()
			if s.bench != "" {
				lit.Name = s.bench
			}
			out = append(out, benchWorkload{lit: lit, scheme: s.scheme, schemeName: s.sname, gated: s.gated})
		}
		return out
	}
	full := sync.OnceValue(func() []benchWorkload { return compile(false) })
	short := sync.OnceValue(func() []benchWorkload { return compile(true) })
	return func(s bool) []benchWorkload {
		if s {
			return short()
		}
		return full()
	}
}()

func benchMesh() geom.Mesh { return geom.NewMesh(2, 2) }

func machineConfig(w benchWorkload) machine.Config {
	return machine.Config{
		Mesh:          benchMesh(),
		GuestContexts: w.guests,
		Placement:     placement.NewStriped(64, benchMesh().Cores()),
		Scheme:        w.scheme,
		Quantum:       16,
	}
}

// runChannel executes one workload end-to-end on the in-process channel
// transport and validates its outcome.
func runChannel(w benchWorkload) (*machine.Result, error) {
	m, err := machine.New(machineConfig(w), len(w.lit.Threads))
	if err != nil {
		return nil, err
	}
	for a, v := range w.lit.Mem {
		m.Preload(a, v, 0)
	}
	res, err := m.Run(w.lit.Threads)
	if err != nil {
		return nil, err
	}
	if w.lit.Check != nil {
		if err := w.lit.Check(m.Read, res.FinalRegs); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runTCP executes one workload on a two-node TCP-loopback cluster (node
// endpoints hosted in-process): real sockets, real batch frames, real
// context serialization.
func runTCP(w benchWorkload) (*machine.ClusterResult, error) {
	mesh := benchMesh()
	man, err := transport.LocalManifest(2, mesh.Width(), mesh.Height())
	if err != nil {
		return nil, err
	}
	wait := machine.HostNodes(man)
	res, err := machine.ClusterRun{
		Manifest: man,
		Config: machine.ClusterConfig{
			GuestContexts: w.guests,
			Quantum:       16,
			Scheme:        w.schemeName,
			Placement:     "striped:64",
			Timeout:       60 * time.Second,
		},
		Threads: w.lit.Threads,
		Mem:     w.lit.Mem,
	}.Run()
	if nerr := wait(); err == nil {
		err = nerr
	}
	if err != nil {
		return nil, err
	}
	if w.lit.Check != nil {
		read := func(a uint32) uint32 { return res.Mem[a] }
		if err := w.lit.Check(read, res.FinalRegs); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runBurstCoalesce measures the transport's coalescing in isolation: two
// real Node endpoints on TCP loopback, one burst of burstSize deferred
// context sends flushed with a single write per op.
func runBurstCoalesce(b *testing.B, short bool, side *Side) {
	const burstSize = 16
	man, err := transport.LocalManifest(2, 2, 1)
	if err != nil {
		side.Fail(b, err)
	}
	sink, err := transport.ListenNode(man, 1)
	if err != nil {
		side.Fail(b, err)
	}
	defer sink.Close()
	sink.Prepare(burstSize)
	sink.HandleMem(func(geom.CoreID, transport.MemRequest) transport.MemReply { return transport.MemReply{} })
	sink.Ready()

	src, err := transport.ListenNode(man, 0)
	if err != nil {
		side.Fail(b, err)
	}
	defer src.Close()

	ctx := benchContext(true)
	ctx.Native = 1
	in := sink.EvictionIn(1)
	before := src.NetStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < burstSize; j++ {
			if err := src.SendEviction(1, ctx); err != nil {
				side.Fail(b, err)
			}
		}
		if err := src.Flush(); err != nil {
			side.Fail(b, err)
		}
		for j := 0; j < burstSize; j++ {
			select {
			case <-in:
			case <-time.After(30 * time.Second):
				side.Failf(b, "burst stalled: %d of %d contexts arrived", j, burstSize)
			}
		}
	}
	b.StopTimer()
	d := src.NetStats().Sub(before)
	b.ReportMetric(d.MsgsPerBatch(), "msgs/batch")
	b.ReportMetric(float64(d.BatchesSent)/float64(b.N), "writes/op")
	b.SetBytes(int64(burstSize * ctx.WireLen()))
	agg := d
	side.Net = &agg
}

// wireMsgs counts a run's data-plane messages: each migration and eviction
// is one context transfer; each remote access is a request/reply pair.
func wireMsgs(r *machine.Result) int64 {
	return r.Migrations + r.Evictions + 2*(r.RemoteReads+r.RemoteWrites)
}

// reportRates attaches messages- and flits-per-second to the benchmark.
func reportRates(b *testing.B, msgs, flits int64) {
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(msgs)/sec, "msgs/s")
		b.ReportMetric(float64(flits)/sec, "flits/s")
	}
}

// Specs returns the benchmark registry.
func Specs() []Spec {
	specs := []Spec{
		{
			// The hot encode path: one context (with predictor state)
			// serialized into a reused buffer, as sendCtx does into the
			// batch buffer. Gated at zero allocations.
			Name: "codec/context-encode", Gated: true,
			Run: func(b *testing.B, short bool, side *Side) {
				ctx := benchContext(true)
				buf := make([]byte, 0, ctx.WireLen())
				b.SetBytes(int64(ctx.WireLen()))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buf = ctx.AppendWire(buf[:0])
				}
				if len(buf) != ctx.WireLen() {
					side.Failf(b, "encoded %d bytes, want %d", len(buf), ctx.WireLen())
				}
			},
		},
		{
			// The hot decode path: the same wire bytes decoded into a
			// reused Context (Sched storage recycled). Gated at zero
			// allocations.
			Name: "codec/context-decode", Gated: true,
			Run: func(b *testing.B, short bool, side *Side) {
				wire := benchContext(true).EncodeWire()
				var out transport.Context
				if err := out.DecodeWire(wire); err != nil { // prime Sched storage
					side.Fail(b, err)
				}
				b.SetBytes(int64(len(wire)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := out.DecodeWire(wire); err != nil {
						side.Fail(b, err)
					}
				}
			},
		},
		{
			// Full round trip through the canonical codec — the number the
			// gob reference below is compared against.
			Name: "codec/context-roundtrip", Gated: true,
			Run: func(b *testing.B, short bool, side *Side) {
				ctx := benchContext(true)
				buf := make([]byte, 0, ctx.WireLen())
				var out transport.Context
				out.Sched = make([]byte, 0, len(ctx.Sched))
				b.SetBytes(int64(ctx.WireLen()))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buf = ctx.AppendWire(buf[:0])
					if err := out.DecodeWire(buf); err != nil {
						side.Fail(b, err)
					}
				}
			},
		},
		{
			// The reference the v1 data plane paid per context: the same
			// Context through a reused gob encoder/decoder stream pair.
			// Not gated — it exists so BENCH_*.json documents the gob
			// bytes/op and allocs/op next to the canonical codec's.
			Name: "codec/context-gob-roundtrip",
			Run: func(b *testing.B, short bool, side *Side) {
				ctx := benchContext(true)
				var stream bytes.Buffer
				enc := gob.NewEncoder(&stream)
				dec := gob.NewDecoder(&stream)
				var bytesPerOp int64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					before := stream.Len()
					if err := enc.Encode(&ctx); err != nil {
						side.Fail(b, err)
					}
					bytesPerOp = int64(stream.Len() - before)
					var out transport.Context
					if err := dec.Decode(&out); err != nil {
						side.Fail(b, err)
					}
				}
				b.ReportMetric(float64(bytesPerOp), "wirebytes/op")
			},
		},
		{
			// One scheduling cycle's flush: a batch of nine data-plane
			// frames encoded into a reused buffer. Gated at zero
			// allocations.
			Name: "frame/batch-encode", Gated: true,
			Run: func(b *testing.B, short bool, side *Side) {
				frames := benchBatchFrames()
				buf := transport.AppendBatch(nil, frames)
				size := len(buf)
				b.SetBytes(int64(size))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buf = transport.AppendBatch(buf[:0], frames)
				}
				if len(buf) != size {
					side.Failf(b, "encoded %d bytes, want %d", len(buf), size)
				}
			},
		},
		{
			// The receive side of the same batch, frames emitted as views.
			// Gated at zero allocations.
			Name: "frame/batch-decode", Gated: true,
			Run: func(b *testing.B, short bool, side *Side) {
				batch := transport.AppendBatch(nil, benchBatchFrames())
				var n int
				emit := func(f transport.Frame) error { n++; return nil }
				b.SetBytes(int64(len(batch)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					n = 0
					if err := transport.DecodeBatch(batch, emit); err != nil {
						side.Fail(b, err)
					}
				}
				if n != 9 {
					side.Failf(b, "decoded %d frames, want 9", n)
				}
			},
		},
		{
			// The telemetry sampling hot path: a 64-core part's counters and
			// gauges snapshotted into a reused Sample and rendered as
			// line-protocol points into a reused buffer — exactly what one
			// serve-loop telemetry tick costs the machine. Gated at zero
			// allocations so periodic sampling can never become a per-tick
			// allocation tax on a soak.
			Name: "telemetry/sample-encode", Gated: true,
			Run: func(b *testing.B, short bool, side *Side) {
				mesh := geom.NewMesh(8, 8)
				pl, err := machine.ParsePlacement("striped:64", mesh.Cores())
				if err != nil {
					side.Fail(b, err)
				}
				tr := transport.NewLocal(mesh.Cores(), 4)
				part, err := machine.NewPart(machine.Config{Mesh: mesh, Placement: pl}, tr)
				if err != nil {
					side.Fail(b, err)
				}
				var s transport.Sample
				var buf []byte
				part.SampleInto(&s)
				buf = telemetry.AppendSamplePoints(buf[:0], &s, 1)
				b.SetBytes(int64(len(buf)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					part.SampleInto(&s)
					buf = telemetry.AppendSamplePoints(buf[:0], &s, uint64(i))
				}
				if len(buf) == 0 {
					side.Failf(b, "empty sample encoding")
				}
			},
		},
		{
			// The per-core lease cache's read hot path: one Lookup hit —
			// tag probe, virtual-time expiry check, LRU touch — at a
			// valid lease. Every cached remote read under cached-remote
			// or hybrid pays exactly this, so it is gated at zero
			// allocations.
			Name: "lease/lookup-hit", Gated: true,
			Run: func(b *testing.B, short bool, side *Side) {
				const entries = 64
				lc := core.NewLeaseCache(entries, 1<<15)
				addrs := make([]cache.Addr, entries)
				for i := range addrs {
					addrs[i] = cache.Addr(i * 64)
					lc.Fill(addrs[i], uint32(i), 0)
				}
				var sum uint32
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					v, ok := lc.Lookup(addrs[i%entries], 1)
					if !ok {
						side.Failf(b, "hit path missed at %d", addrs[i%entries])
					}
					sum += v
				}
				b.StopTimer()
				if lc.Len() != entries {
					side.Failf(b, "hit loop changed occupancy: %d entries, want %d (sum %d)", lc.Len(), entries, sum)
				}
			},
		},
	}

	specs = append(specs, serveSpecs()...)
	specs = append(specs, tcp64Specs()...)

	specs = append(specs, Spec{
		// The coalescing path in isolation: one scheduling cycle's burst —
		// 16 contexts to the same peer — deferred into the batch buffer and
		// flushed with a single write, over a real TCP loopback link. The
		// msgs/batch metric is the designed coalescing factor (≈16); under
		// the v1 gob plane the same burst cost 16 syscalls.
		Name: "transport/burst-coalesce",
		Run:  runBurstCoalesce,
	})

	for _, w := range benchWorkloads(false) {
		specs = append(specs,
			Spec{
				Name: "machine/channel/" + w.lit.Name, FullOnly: w.full, Gated: w.gated,
				Run: func(b *testing.B, short bool, side *Side) {
					ws := w
					if short {
						ws = shortVariant(w)
					}
					var msgs, flits int64
					var last *machine.Result
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						res, err := runChannel(ws)
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
			Spec{
				Name: "machine/tcp/" + w.lit.Name, FullOnly: w.full, Gated: w.gated,
				Run: func(b *testing.B, short bool, side *Side) {
					ws := w
					if short {
						ws = shortVariant(w)
					}
					var msgs, flits int64
					var net, coord transport.NetStats
					var last *machine.ClusterResult
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						res, err := runTCP(ws)
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
					// The batching evidence: frames shipped per write
					// syscall across the whole run, and syscalls per op.
					// coord_msgs/batch shows the injection coalescing (a
					// run's initial contexts reach each node in one write).
					b.ReportMetric(net.MsgsPerBatch(), "msgs/batch")
					b.ReportMetric(float64(net.BatchesSent)/float64(b.N), "writes/op")
					b.ReportMetric(float64(net.MsgsSent)/float64(b.N), "wiremsgs/op")
					b.ReportMetric(coord.MsgsPerBatch(), "coord_msgs/batch")
					side.PerCore = last.PerCore
					agg := net
					side.Net = &agg
				},
			},
		)
	}
	return specs
}

// serveConfig sizes the open-loop serving benchmark: a seeded Poisson
// arrival stream of mixed litmus jobs with a bounded admission window.
func serveConfig(short bool) serve.Config {
	jobs := 24
	if short {
		jobs = 8
	}
	return serve.Config{
		W: 2, H: 2,
		Workload:    "mix",
		Jobs:        jobs,
		Seed:        2011,
		MeanGap:     1500,
		MaxInflight: 8,
		Timeout:     60 * time.Second,
	}
}

// reportServe attaches the serving SLO numbers to the benchmark: jobs
// completed per wall second and the report's own p99 latency (a modeled
// quantity in machine cycles, identical across transports by contract).
func reportServe(b *testing.B, rep *serve.Report) {
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(rep.Completed)*float64(b.N)/sec, "jobs/s")
	}
	b.ReportMetric(rep.LatencyCycles.P99, "p99_cycles")
	b.ReportMetric(float64(rep.Rejected), "rejected/op")
}

// runServeTCP executes one serving run on a self-hosted two-node TCP
// cluster, mirroring runTCP's node hosting.
func runServeTCP(cfg serve.Config) (*serve.Report, error) {
	man, err := transport.LocalManifest(2, cfg.W, cfg.H)
	if err != nil {
		return nil, err
	}
	wait := machine.HostNodes(man)
	be, err := serve.NewClusterBackend(cfg, man)
	if err != nil {
		return nil, err
	}
	rep, err := serve.Run(cfg, be)
	be.Close()
	if nerr := wait(); err == nil {
		err = nerr
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// serveSpecs benchmarks the whole serving pipeline — admission, the job
// lifecycle (submit/ack/inject/halts/retire), per-job SC checking — on
// both transports. Both entries are in the -short (CI) set.
func serveSpecs() []Spec {
	return []Spec{
		{
			Name: "serve/channel",
			Run: func(b *testing.B, short bool, side *Side) {
				cfg := serveConfig(short)
				var rep *serve.Report
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					be, err := serve.NewLocalBackend(cfg)
					if err != nil {
						side.Fail(b, err)
					}
					r, err := serve.Run(cfg, be)
					be.Close()
					if err != nil {
						side.Fail(b, err)
					}
					rep = r
				}
				reportServe(b, rep)
			},
		},
		{
			Name: "serve/tcp",
			Run: func(b *testing.B, short bool, side *Side) {
				cfg := serveConfig(short)
				var rep *serve.Report
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					r, err := runServeTCP(cfg)
					if err != nil {
						side.Fail(b, err)
					}
					rep = r
				}
				reportServe(b, rep)
			},
		},
	}
}

// shortVariant maps a workload to its -short sizing by name.
func shortVariant(w benchWorkload) benchWorkload {
	for _, s := range benchWorkloads(true) {
		if s.lit.Name == w.lit.Name {
			return s
		}
	}
	return w
}

// Workloads exposes the registry workload names (for -list and tests).
func Workloads() []string {
	var names []string
	for _, w := range benchWorkloads(false) {
		names = append(names, w.lit.Name)
	}
	return names
}
