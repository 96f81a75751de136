package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/geom"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/workload"
	"repro/internal/wprog"
)

// Ocean sizing: a 4×4 mesh running 16 threads of ocean at interior grid
// dimension oceanScale for oceanIters red–black sweeps.
const (
	oceanCores   = 16
	oceanScale   = 128
	oceanIters   = 2
	oceanPlace   = "striped:64"
	haltDeadline = 60 * time.Second
	setupReps    = 5  // set-ups timed before the window
	setupEvery   = 10 // and one more after every setupEvery-th run
)

// oceanTrace generates the ocean trace and relabels its threads by a
// permutation drawn from seed. Relabeling moves each thread's rows (and so
// their first-touch homes) to another core of the mesh; the sharing
// structure, the access counts and the migration and remote-access counts
// are the same for every seed.
func oceanTrace(seed int64) *trace.Trace {
	src := workload.Ocean(workload.Config{Threads: oceanCores, Scale: oceanScale, Iters: oceanIters, Seed: uint64(seed)})
	perm := rand.New(rand.NewSource(seed)).Perm(src.NumThreads)
	tr := trace.New(src.Name, src.NumThreads)
	tr.WordBytes = src.WordBytes
	for _, a := range src.Accesses {
		a.Thread = perm[a.Thread]
		tr.Append(a)
	}
	return tr
}

// oceanBench runs the compiled ocean trace on a channel machine, one run
// after another, each on a fresh machine.Part over a fresh transport.Local.
type oceanBench struct {
	scheme string
	mesh   geom.Mesh
	comp   *wprog.Compiled
	want   wprog.Counts
}

func (o *oceanBench) config() (machine.Config, error) {
	cfg := machine.Config{Mesh: o.mesh}
	var err error
	if cfg.Placement, err = machine.ParsePlacement(oceanPlace, o.mesh.Cores()); err != nil {
		return cfg, err
	}
	cfg.Scheme, err = machine.ParseScheme(o.scheme, o.mesh)
	return cfg, err
}

// newPart builds one run's machine: the Part over tr with the compiled
// image preloaded at the pages' first-touch homes.
func (o *oceanBench) newPart(tr transport.Transport) (*machine.Part, error) {
	cfg, err := o.config()
	if err != nil {
		return nil, err
	}
	part, err := machine.NewPart(cfg, tr)
	if err != nil {
		return nil, err
	}
	for _, pg := range o.comp.Pages {
		part.Preload(pg.Base, o.comp.Mem[pg.Base], pg.Home)
	}
	return part, nil
}

// setup is the timed set-up: generate and compile the trace, build the
// machine and preload it. It returns the whole time and the compile time.
func (o *oceanBench) setup(seed int64) (total, compile time.Duration, err error) {
	t0 := time.Now()
	tr := oceanTrace(seed)
	t1 := time.Now()
	comp, err := wprog.Compile(tr, oceanCores)
	if err != nil {
		return 0, 0, err
	}
	compile = time.Since(t1)
	o.comp = comp
	if _, err := o.newPart(transport.NewLocal(oceanCores, len(comp.Threads))); err != nil {
		return 0, 0, err
	}
	return time.Since(t0), compile, nil
}

// reference computes the trace model's counts the runtime must equal.
func (o *oceanBench) reference() error {
	cfg, err := o.config()
	if err != nil {
		return err
	}
	res, err := o.comp.Predict(o.mesh, cfg.Scheme, cfg.Placement, 0)
	if err != nil {
		return err
	}
	o.want = wprog.ModelCounts(res, cfg.Scheme)
	return nil
}

// oceanRun is one Machine.Run's measurements.
type oceanRun struct {
	dur    time.Duration
	halts  []time.Duration // per thread: injection start to its HALT
	counts wprog.Counts
	instrs int64

	leaseInvalCalls int64 // traced runs only
}

// run executes the compiled program once, exactly as Machine.Run does but
// through the public Part API so the transport can be decorated: start the
// cores, inject every thread's native context, wait for every HALT, stop
// and collect. With a tracer the run's Local is wrapped in a
// tracedTransport and the run is one traced op. The outcome is checked by
// the compiled program's litmus check and against the trace model's counts.
func (o *oceanBench) run(t *tracer, op int) (oceanRun, error) {
	n := len(o.comp.Threads)
	local := transport.NewLocal(oceanCores, n)
	var tr transport.Transport = local
	var tt *tracedTransport
	if t != nil {
		tt = &tracedTransport{Transport: local, t: t}
		tr = tt
	}
	part, err := o.newPart(tr)
	if err != nil {
		return oceanRun{}, err
	}
	halted := make(chan transport.HaltMsg, n)
	haltAt := make([]time.Duration, n)
	var start time.Time
	if t != nil {
		t.startOp(op)
	}
	start = time.Now()
	if err := part.Start(o.comp.Threads, func(h transport.HaltMsg) {
		haltAt[h.Thread] = time.Since(start)
		halted <- h
	}); err != nil {
		return oceanRun{}, err
	}
	for th := 0; th < n; th++ {
		ctx := transport.Context{Thread: int32(th), Native: int32(th % oceanCores)}
		if err := tr.SendEviction(geom.CoreID(th%oceanCores), ctx); err != nil {
			part.Stop()
			return oceanRun{}, err
		}
	}
	regs := make([][isa.NumRegs]uint32, n)
	timeout := time.NewTimer(haltDeadline)
	defer timeout.Stop()
	for got := 0; got < n; got++ {
		select {
		case h := <-halted:
			regs[h.Thread] = h.Regs
		case <-timeout.C:
			part.Stop()
			return oceanRun{}, fmt.Errorf("ocean: %d of %d threads halted within %v", got, n, haltDeadline)
		}
	}
	part.Stop()
	coll := part.Collect(0)
	dur := time.Since(start)
	if t != nil {
		t.finishOp()
	}

	c := coll.Counters
	res := &machine.Result{
		Migrations: c["migrations"], Evictions: c["evictions"],
		RemoteReads: c["remote_reads"], RemoteWrites: c["remote_writes"],
		LocalOps: c["local_ops"], ContextFlits: c["context_flits"],
		LeaseHits: c["lease_hits"], LeaseMisses: c["lease_misses"], LeaseInvals: c["lease_invals"],
	}
	r := oceanRun{dur: dur, halts: haltAt, counts: wprog.RuntimeCounts(res), instrs: c["instructions"]}
	if tt != nil {
		r.leaseInvalCalls = tt.leaseInvals.Load()
	}
	read := func(a uint32) uint32 { v, _ := part.Peek(a); return v }
	if err := o.comp.Litmus().Check(read, regs); err != nil {
		return r, err
	}
	if d := r.counts.Diff(o.want); len(d) > 0 {
		return r, fmt.Errorf("ocean: runtime counters differ from the trace model: %v", d)
	}
	if want := int64(o.comp.Instructions()); r.instrs != want {
		return r, fmt.Errorf("ocean: %d instructions retired, compiled %d", r.instrs, want)
	}
	return r, nil
}

// benchOcean measures one ocean workload under scheme: set-up repeated
// setupReps times, one warm-up run, then runs back to back until the
// window closes, with a timed set-up after every setupEvery-th run. A traced run alternates untraced and traced runs, so the
// tracing overhead is measured on neighbouring runs.
func benchOcean(opt options, scheme string) (*result, error) {
	o := &oceanBench{scheme: scheme, mesh: geom.NewMesh(4, 4)}
	res := &result{Metrics: map[string]metric{}}
	var setups, compiles []float64
	for range setupReps {
		total, compile, err := o.setup(opt.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, total.Seconds())
		compiles = append(compiles, compile.Seconds()*1e3)
		runtime.GC() // each set-up, and the window, starts from a collected heap
	}
	if err := o.reference(); err != nil {
		return nil, err
	}
	var t *tracer
	if opt.trace {
		// Room for one run's spans; the first run's are kept for the dump.
		t = newTracer(1<<20, 1<<19, len(o.comp.Threads))
	}

	var (
		plain, traced      []float64 // ms per run
		halts              []float64 // µs from injection to each thread's HALT
		instrRate, jobRate []float64 // per run: instructions, threads per second
		gs                 goStats
		last               oceanRun
		leaseInvalCalls    int64
		tracedRuns         int64
	)
	deadline := time.Now().Add(opt.seconds)
	for op := 0; op == 0 || time.Now().Before(deadline); op++ {
		var tr *tracer
		if opt.trace && op > 0 && op%2 == 0 {
			tr = t
		}
		measured := op > 0 && tr == nil
		if measured {
			gs.start()
		}
		r, err := o.run(tr, op)
		if measured {
			gs.stop()
		}
		if op%setupEvery == setupEvery-1 {
			// Set-up samples spread over the window see the same host as
			// the runs do.
			total, compile, err := o.setup(opt.seed)
			if err != nil {
				return nil, err
			}
			setups = append(setups, total.Seconds())
			compiles = append(compiles, compile.Seconds()*1e3)
			runtime.GC()
		}
		res.Attempted++
		if err != nil {
			res.fail(1, fmt.Errorf("run %d: %w", op, err))
			continue
		}
		last = r
		switch {
		case op == 0: // warm-up
		case tr != nil:
			traced = append(traced, r.dur.Seconds()*1e3)
			leaseInvalCalls += r.leaseInvalCalls
			tracedRuns++
		default:
			plain = append(plain, r.dur.Seconds()*1e3)
			for _, h := range r.halts {
				halts = append(halts, h.Seconds()*1e6)
			}
			instrRate = append(instrRate, float64(r.instrs)/r.dur.Seconds())
			jobRate = append(jobRate, float64(len(r.halts))/r.dur.Seconds())
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: ocean %s: %d untraced runs, %d traced, %d thread halts; set-up median of %d\n",
		scheme, len(plain), len(traced), len(halts), len(setups))

	if !opt.trace {
		res.set("setup_s", "s", median(setups))
		res.set("run_ms_p50", "ms", median(plain))
		res.set("run_ms_p90", "ms", percentile(plain, 0.9))
		res.set("instr_per_s", "1/s", median(instrRate))
		res.set("jobs_per_s", "1/s", median(jobRate))
		res.set("job_us_p50", "us", median(halts))
		res.set("job_us_p90", "us", percentile(halts, 0.9))
		res.set("alloc_kb_per_op", "KiB", ratio(float64(gs.bytes)/1024, float64(gs.ops)))
		res.set("max_rss_mb", "MiB", maxRSSMB())
		return res, res.finish(false)
	}

	c := last.counts
	res.set("machine.instructions", "count", float64(last.instrs))
	res.set("machine.migrations", "count", float64(c.Migrations))
	res.set("machine.remote_ops", "count", float64(c.RemoteOps))
	res.set("machine.local_ops", "count", float64(c.LocalOps))
	res.set("machine.context_flits", "count", float64(c.ContextFlits))
	ops := float64(max(t.ops, 1))
	mean := func(k int) float64 { return ratio(float64(t.busy[k].Nanoseconds()), float64(t.calls[k])) }
	res.set("machine.shard_apply_calls", "count", float64(t.calls[spanShardApply])/ops)
	res.set("machine.shard_apply_ns_mean", "ns", mean(spanShardApply))
	res.set("machine.loop_self_ms", "ms", t.self[spanRoot].Seconds()*1e3/ops)
	res.set("core.lease_hits", "count", float64(c.LeaseHits))
	res.set("core.lease_misses", "count", float64(c.LeaseMisses))
	res.set("core.lease_invals", "count", float64(c.LeaseInvals))
	res.set("core.lease_hit_ratio", "ratio", ratio(float64(c.LeaseHits), float64(c.LeaseHits+c.LeaseMisses)))
	res.set("core.migrate_share", "ratio", ratio(float64(c.Migrations), float64(c.Migrations+c.RemoteOps+c.LeaseHits)))
	res.set("transport.send_ctx_calls", "count", float64(t.calls[spanSendCtx])/ops)
	res.set("transport.send_ctx_ns_mean", "ns", mean(spanSendCtx))
	res.set("transport.remote_calls", "count", float64(t.calls[spanRemote])/ops)
	res.set("transport.remote_ns_mean", "ns", mean(spanRemote))
	res.set("transport.lease_inval_calls", "count", ratio(float64(leaseInvalCalls), float64(tracedRuns)))
	res.set("wprog.compile_ms", "ms", median(compiles))
	gs.report(res, float64(gs.ops))
	res.set("trace.overhead_pct", "%", 100*(ratio(median(traced), median(plain))-1))
	res.set("trace.spans_per_op", "count", float64(sumCalls(t))/ops)

	u, err := measureUnitCosts(scheme, o.mesh)
	if err != nil {
		return nil, err
	}
	u.report(res, c.LeaseHits > 0)
	if err := printSpans(t, "scheduling loop, instruction execution, run queue"); err != nil {
		return nil, err
	}
	sends := float64(c.Migrations + c.Evictions + int64(len(o.comp.Threads)))
	printLedger(res, "run", median(plain), []ledgerItem{
		{"machine.instr", u.instr, float64(last.instrs)},
		{"transport.local_send", u.localSend, sends},
		{"transport.local_remote", u.localRemote, float64(c.LocalOps + c.RemoteOps)},
		{"core.lease_lookup", u.leaseLookup, float64(c.LeaseHits)},
	})
	if err := t.dump(opt.spanPath()); err != nil {
		return nil, err
	}
	return res, res.finish(true)
}
