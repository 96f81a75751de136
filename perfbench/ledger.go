package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/placement"
	"repro/internal/transport"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_ms_p50", "ms"},
	{"run_ms_p90", "ms"},
	{"instr_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"job_us_p50", "us"},
	{"job_us_p90", "us"},
	{"alloc_kb_per_op", "KiB"},
	{"max_rss_mb", "MiB"},
}

// perLayer are the metrics of a traced run, in BENCHMARK.json order. A
// layer a workload does not reach reports 0.
var perLayer = []metricDef{
	{"machine.instructions", "count"},
	{"machine.migrations", "count"},
	{"machine.remote_ops", "count"},
	{"machine.local_ops", "count"},
	{"machine.context_flits", "count"},
	{"machine.shard_apply_calls", "count"},
	{"machine.shard_apply_ns_mean", "ns"},
	{"machine.loop_self_ms", "ms"},
	{"machine.check_sc_us_per_job", "us"},
	{"machine.instr_ns", "ns"},
	{"core.lease_hits", "count"},
	{"core.lease_misses", "count"},
	{"core.lease_invals", "count"},
	{"core.lease_hit_ratio", "ratio"},
	{"core.lease_lookup_ns", "ns"},
	{"core.migrate_share", "ratio"},
	{"transport.send_ctx_calls", "count"},
	{"transport.send_ctx_ns_mean", "ns"},
	{"transport.remote_calls", "count"},
	{"transport.remote_ns_mean", "ns"},
	{"transport.lease_inval_calls", "count"},
	{"transport.batches_per_job", "count"},
	{"transport.msgs_per_batch", "count"},
	{"transport.bytes_per_job", "B"},
	{"transport.codec_roundtrip_ns", "ns"},
	{"transport.batch_encode_ns", "ns"},
	{"transport.batch_decode_ns", "ns"},
	{"transport.local_send_ns", "ns"},
	{"transport.local_remote_ns", "ns"},
	{"serve.run_job_us_p50", "us"},
	{"serve.run_job_us_p99", "us"},
	{"serve.retire_us_p50", "us"},
	{"serve.retire_us_p99", "us"},
	{"serve.self_us_per_job", "us"},
	{"serve.backend_open_ms", "ms"},
	{"serve.drain_ms", "ms"},
	{"wprog.compile_ms", "ms"},
	{"go.mallocs_per_op", "count"},
	{"go.gc_cycles_per_op", "count"},
	{"go.gc_pause_us_per_op", "us"},
	{"trace.overhead_pct", "%"},
	{"trace.spans_per_op", "count"},
	{"ledger.explained_ms", "ms"},
	{"ledger.residual_ms", "ms"},
}

// finish checks that r reports exactly the metrics of its mode, filling
// the per-layer metrics a workload does not reach with 0.
func (r *result) finish(traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
		for _, d := range defs {
			if _, ok := r.Metrics[d.name]; !ok {
				r.set(d.name, d.unit, 0)
			}
		}
	}
	if len(r.Metrics) != len(defs) {
		return fmt.Errorf("reports %d metrics, want %d", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := r.Metrics[d.name]; !ok || m.Unit != d.unit {
			return fmt.Errorf("metric %s missing or not in %s", d.name, d.unit)
		}
	}
	return nil
}

// unitCosts are the layers' per-call costs, each measured alone through
// the layer's public functions on one goroutine.
type unitCosts struct {
	codecRoundtrip float64 // Context.AppendWire + DecodeWire
	batchEncode    float64 // AppendBatch of one context frame
	batchDecode    float64 // DecodeBatch of that batch
	leaseLookup    float64 // LeaseCache.Lookup hit
	localSend      float64 // Local.SendMigration + receive
	localRemote    float64 // Local.Remote read through the Part's shard handler
	instr          float64 // one ALU instruction of a Machine.Run
}

// nsPerCall times n calls of f in five rounds and returns the median
// round's ns per call.
func nsPerCall(n int, f func()) float64 {
	rounds := make([]float64, 0, 5)
	for range 5 {
		t0 := time.Now()
		for range n {
			f()
		}
		rounds = append(rounds, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(rounds)
}

// measureUnitCosts microbenchmarks the layers for a machine running
// schemeName on mesh: the context carries that scheme's predictor state.
func measureUnitCosts(schemeName string, mesh geom.Mesh) (unitCosts, error) {
	var u unitCosts
	scheme, err := machine.ParseScheme(schemeName, mesh)
	if err != nil {
		return u, err
	}
	ctx := transport.Context{Thread: 3, Native: 1, MemSeq: 12345}
	for i := range ctx.Arch.Regs {
		ctx.Arch.Regs[i] = uint32(i) * 0x9E3779B9
	}
	ctx.Sched = scheme.NewPredictor(0).AppendState(nil)

	const n = 100_000
	var failed error
	check := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}
	buf := ctx.EncodeWire()
	var dec transport.Context
	u.codecRoundtrip = nsPerCall(n, func() {
		buf = ctx.AppendWire(buf[:0])
		check(dec.DecodeWire(buf))
	})

	frames := []transport.Frame{{Kind: transport.FrameMigration, Dst: 1, Ctx: ctx.EncodeWire()}}
	batch := transport.AppendBatch(nil, frames)
	u.batchEncode = nsPerCall(n, func() { batch = transport.AppendBatch(batch[:0], frames) })
	u.batchDecode = nsPerCall(n, func() {
		check(transport.DecodeBatch(batch, func(transport.Frame) error { return nil }))
	})

	lc := core.NewLeaseCache(core.DefaultLeaseEntries, core.DefaultLeaseWindow)
	for a := range core.DefaultLeaseEntries {
		lc.Fill(cache.Addr(4*a), uint32(a), 0)
	}
	i := 0
	u.leaseLookup = nsPerCall(n, func() {
		if _, ok := lc.Lookup(cache.Addr(4*(i%core.DefaultLeaseEntries)), 1); !ok {
			check(fmt.Errorf("lease lookup missed"))
		}
		i++
	})

	one := transport.NewLocal(1, 1)
	in := one.MigrationIn(0)
	u.localSend = nsPerCall(n, func() {
		check(one.SendMigration(0, ctx))
		<-in
	})

	place, err := machine.ParsePlacement(oceanPlace, mesh.Cores())
	if err != nil {
		return u, err
	}
	local := transport.NewLocal(mesh.Cores(), 1)
	if _, err := machine.NewPart(machine.Config{Mesh: mesh, Placement: place, Scheme: scheme}, local); err != nil {
		return u, err
	}
	const addr = 0x40
	home := place.Touch(addr, 0)
	var seq int64
	u.localRemote = nsPerCall(n, func() {
		seq++
		_, err := local.Remote(home, transport.MemRequest{Thread: 0, TSeq: seq, Op: transport.OpRead, Addr: addr, From: uint32(home)})
		check(err)
	})

	u.instr, err = instrCost(scheme, place)
	if err != nil {
		return u, err
	}
	return u, failed
}

// instrCost is the core loop's cost per instruction: the median of five
// Machine.Runs of one thread executing a long straight line of ALU
// instructions on a one-core machine, start-up and collection included.
func instrCost(scheme core.Scheme, place placement.Policy) (float64, error) {
	const n = 100_000
	prog := make([]isa.Instr, n, n+1)
	for i := range prog {
		prog[i] = isa.Instr{Op: isa.ADDI, Rd: 1, Rs: 1, Imm: 1}
	}
	prog = append(prog, isa.Instr{Op: isa.HALT})
	rounds := make([]float64, 0, 5)
	for range 5 {
		m, err := machine.New(machine.Config{Mesh: geom.NewMesh(1, 1), Placement: place, Scheme: scheme}, 1)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		res, err := m.Run([]machine.ThreadSpec{{Program: prog}})
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		if res.FinalRegs[0][1] != n {
			return 0, fmt.Errorf("instruction microbenchmark: r1 = %d, want %d", res.FinalRegs[0][1], n)
		}
		rounds = append(rounds, float64(d.Nanoseconds())/float64(res.Instructions))
	}
	return median(rounds), nil
}

// ledgerItem is one layer's share of an op: its unit cost times the op's
// own count of calls into it.
type ledgerItem struct {
	name  string
	ns    float64
	count float64
}

// printLedger prints Σ(unit cost × count) against the measured op time
// and sets the ledger metrics.
func printLedger(r *result, unit string, measuredMS float64, items []ledgerItem) {
	fmt.Fprintf(os.Stderr, "perfbench: ledger per %s (untraced median %.3f ms)\n", unit, measuredMS)
	explained := 0.0
	for _, it := range items {
		ms := it.ns * it.count / 1e6
		explained += ms
		fmt.Fprintf(os.Stderr, "  %-28s %10.1f ns x %12.1f = %9.3f ms\n", it.name, it.ns, it.count, ms)
	}
	residual := measuredMS - explained
	fmt.Fprintf(os.Stderr, "  %-28s %40.3f ms\n  %-28s %40.3f ms (%.1f%% of the %s)\n",
		"explained", explained, "unexplained residual", residual, 100*ratio(residual, measuredMS), unit)
	r.set("ledger.explained_ms", "ms", explained)
	r.set("ledger.residual_ms", "ms", residual)
}

// printSpans prints the traced ops' wall time split into per-span self
// times, which with the unspanned residual add up to the traced op time;
// it fails if they do not.
func printSpans(t *tracer, residualName string) error {
	ops := float64(max(t.ops, 1))
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 / ops }
	fmt.Fprintf(os.Stderr, "perfbench: span self time per traced op over %d ops (%d spans lost)\n", t.ops, t.lost.Load())
	var total time.Duration
	for k := 1; k < numSpanKinds; k++ {
		if t.calls[k] > 0 {
			fmt.Fprintf(os.Stderr, "  %-28s %9.3f ms  (%.0f calls)\n", spanNames[k], ms(t.self[k]), float64(t.calls[k])/ops)
		}
		total += t.self[k]
	}
	total += t.self[spanRoot]
	fmt.Fprintf(os.Stderr, "  %-28s %9.3f ms  (residual: %s)\n", "unspanned", ms(t.self[spanRoot]), residualName)
	fmt.Fprintf(os.Stderr, "  %-28s %9.3f ms = traced op time %.3f ms\n", "sum", ms(total), ms(t.total))
	if d := total - t.total; d > time.Microsecond*time.Duration(ops) || -d > time.Microsecond*time.Duration(ops) {
		return fmt.Errorf("span self times add up to %v, traced op time %v", total, t.total)
	}
	return nil
}

// checkSCPerJob times machine.CheckSCFrom over the captured jobs and
// returns µs per job.
func checkSCPerJob(jobs []capturedJob) (float64, error) {
	if len(jobs) == 0 {
		return 0, nil
	}
	var failed error
	perCall := nsPerCall(20, func() {
		for _, j := range jobs {
			if err := machine.CheckSCFrom(j.mem, j.events); err != nil && failed == nil {
				failed = err
			}
		}
	})
	return perCall / float64(len(jobs)) / 1e3, failed
}

// report sets the unit-cost metrics; the lease lookup only where the
// workload's reads are leased.
func (u unitCosts) report(r *result, leased bool) {
	r.set("transport.codec_roundtrip_ns", "ns", u.codecRoundtrip)
	r.set("transport.batch_encode_ns", "ns", u.batchEncode)
	r.set("transport.batch_decode_ns", "ns", u.batchDecode)
	r.set("transport.local_send_ns", "ns", u.localSend)
	r.set("transport.local_remote_ns", "ns", u.localRemote)
	r.set("machine.instr_ns", "ns", u.instr)
	if leased {
		r.set("core.lease_lookup_ns", "ns", u.leaseLookup)
	}
}

// sumCalls is the number of non-root spans recorded.
func sumCalls(t *tracer) int64 {
	n := int64(0)
	for k := 1; k < numSpanKinds; k++ {
		n += t.calls[k]
	}
	return n
}
