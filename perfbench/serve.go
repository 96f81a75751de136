package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	"repro/internal/geom"
	"repro/internal/machine"
	"repro/internal/serve"
	"repro/internal/transport"
)

// Serve sizing: each run is one serve.Run of serveJobs mix jobs on a 4×4
// mesh under always-migrate, arriving every serveGap virtual cycles on
// average against an in-flight window of serveWindow.
const (
	serveW, serveH = 4, 4
	serveJobs      = 300
	serveGap       = 500
	serveWindow    = 4
	serveNodes     = 2
	serveTimeout   = 30 * time.Second
)

// serveConfig is run rep's configuration: every rep draws its own arrival
// and rand-priv seed from the benchmark seed.
func serveConfig(seed int64, rep int) serve.Config {
	return serve.Config{
		W: serveW, H: serveH,
		Scheme:      "always-migrate",
		Placement:   "striped:64",
		Workload:    "mix",
		Jobs:        serveJobs,
		Seed:        seed*1_000_003 + int64(rep),
		MeanGap:     serveGap,
		MaxInflight: serveWindow,
		Timeout:     serveTimeout,
	}
}

// openBackend builds one run's backend and returns it with its closer. For
// TCP it hosts the nodes in-process with machine.ServeNode, starting each
// only once the previous one accepts connections (the order an operator
// starts a cluster in), then dials the cluster with serve.NewClusterBackend.
// The closer shuts the cluster down and waits for every node to exit, as
// does a failed NewClusterBackend, whose error then carries the nodes'.
func openBackend(cfg serve.Config, tcp bool) (serve.Backend, func() error, error) {
	if !tcp {
		be, err := serve.NewLocalBackend(cfg)
		if err != nil {
			return nil, nil, err
		}
		return be, func() error { be.Close(); return nil }, nil
	}
	man, err := loopbackManifest()
	if err != nil {
		return nil, nil, err
	}
	errs := make(chan error, len(man.Nodes))
	for i := range man.Nodes {
		go func() { errs <- machine.ServeNode(man, i) }()
		if err := awaitListening(man.Nodes[i].Addr, errs); err != nil {
			return nil, nil, err
		}
	}
	// wait collects every node's exit; a node still running after the
	// coordinator is gone is reported rather than waited for forever.
	wait := func() error {
		var failed []error
		timeout := time.After(serveTimeout)
		for range man.Nodes {
			select {
			case err := <-errs:
				if err != nil {
					failed = append(failed, fmt.Errorf("node: %w", err))
				}
			case <-timeout:
				return errors.Join(append(failed, fmt.Errorf("a node did not exit within %v", serveTimeout))...)
			}
		}
		return errors.Join(failed...)
	}
	be, err := serve.NewClusterBackend(cfg, man)
	if err != nil {
		return nil, nil, errors.Join(err, wait())
	}
	return be, func() error { be.Close(); return wait() }, nil
}

// loopbackManifest splits the mesh into serveNodes contiguous core blocks
// on distinct free 127.0.0.1 ports. Every port's listener stays open until
// all are drawn, so no two nodes can be handed the same port, which
// transport.LocalManifest, closing each before drawing the next, can do.
func loopbackManifest() (transport.Manifest, error) {
	man := transport.Manifest{W: serveW, H: serveH, Nodes: make([]transport.NodeSpec, serveNodes)}
	cores := serveW * serveH
	for i := range man.Nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return man, err
		}
		defer ln.Close()
		man.Nodes[i].Addr = ln.Addr().String()
		for c := i * cores / serveNodes; c < (i+1)*cores/serveNodes; c++ {
			man.Nodes[i].Cores = append(man.Nodes[i].Cores, geom.CoreID(c))
		}
	}
	return man, man.Validate()
}

// awaitListening dials addr until it accepts. A probe that closes without
// a hello is dropped by the node like any stranger's connection.
func awaitListening(addr string, errs <-chan error) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return c.Close()
		}
		select {
		case e := <-errs:
			return fmt.Errorf("node on %s exited before listening: %v", addr, e)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("node on %s not listening: %v", addr, err)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// serveRun is one serve.Run's measurements.
type serveRun struct {
	dur    time.Duration
	report *serve.Report
	json   []byte
	rec    *recordingBackend
}

// runServe opens a backend for cfg, times one serve.Run on it through a
// recordingBackend, and checks the report's job accounting. setup is the
// bring-up time; g, when non-nil, accumulates the run's Go runtime work.
func runServe(cfg serve.Config, tcp bool, t *tracer, op int, g *goStats) (r serveRun, setup time.Duration, err error) {
	t0 := time.Now()
	be, closeFn, err := openBackend(cfg, tcp)
	if err != nil {
		return r, 0, err
	}
	setup = time.Since(t0)
	r.rec = &recordingBackend{
		Backend:    be,
		t:          t,
		jobStarts:  make([]time.Time, 0, cfg.Jobs),
		jobRuns:    make([]float64, 0, cfg.Jobs),
		keepEvents: 64,
	}
	if t != nil {
		t.startOp(op)
		if s, err := r.rec.Sample(); err == nil {
			r.rec.netStart = s.Net
		}
	}
	if g != nil {
		g.start()
	}
	start := time.Now()
	r.report, err = serve.Run(cfg, r.rec)
	r.dur = time.Since(start)
	if g != nil {
		g.stop()
	}
	if t != nil {
		t.finishOp()
	}
	if cerr := closeFn(); err == nil {
		err = cerr
	}
	if err != nil {
		return r, setup, err
	}
	rep := r.report
	if rep.Submitted != cfg.Jobs || rep.Completed+rep.Rejected != rep.Submitted || rep.SCChecked != rep.Completed {
		return r, setup, fmt.Errorf("serve: %d submitted of %d, %d completed + %d rejected, %d SC-checked",
			rep.Submitted, cfg.Jobs, rep.Completed, rep.Rejected, rep.SCChecked)
	}
	r.json, err = rep.JSON()
	return r, setup, err
}

// benchServe measures serve on the channel or the TCP backend: one warm-up
// run, then one serve.Run after another on a fresh backend each until the
// window closes. A traced run alternates untraced and traced runs. On TCP
// every run's report is then checked byte for byte against the channel
// backend's report for the same configuration.
func benchServe(opt options, tcp bool) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	var t *tracer
	if opt.trace {
		t = newTracer(1<<16, 1<<16, 0)
	}
	type ref struct {
		cfg  serve.Config
		json []byte
	}
	var (
		setups, plain, traced []float64 // s per bring-up, ms per serve.Run
		jobRuns               []float64 // ms per RunJob
		jobUS                 []float64 // µs of host work per job
		instrRate, jobRate    []float64 // per run: instructions, completed jobs per second
		gs                    goStats
		gsJobs                float64
		first                 *serve.Report
		firstThreads          int
		refs                  []ref
		captured              []capturedJob
		net                   transport.NetStats
		tracedJobs            float64
	)
	deadline := time.Now().Add(opt.seconds)
	for op := 0; op == 0 || time.Now().Before(deadline); op++ {
		cfg := serveConfig(opt.seed, op)
		var tr *tracer
		if opt.trace && op > 0 && op%2 == 0 {
			tr = t
		}
		var g *goStats
		if op > 0 && tr == nil {
			g = &gs
		}
		r, setup, err := runServe(cfg, tcp, tr, op, g)
		res.Attempted += int64(cfg.Jobs)
		if err != nil {
			res.fail(int64(cfg.Jobs), fmt.Errorf("run %d: %w", op, err))
			continue
		}
		setups = append(setups, setup.Seconds())
		if tcp {
			refs = append(refs, ref{cfg, r.json})
		}
		done := float64(r.report.Completed)
		switch {
		case op == 0: // warm-up; its report denominates the counts
			first, firstThreads = r.report, r.rec.threads
		case tr != nil:
			traced = append(traced, r.dur.Seconds()*1e3)
			captured = append(captured, r.rec.captured[:min(len(r.rec.captured), 256-len(captured))]...)
			net = net.Add(r.rec.netEnd.Sub(r.rec.netStart))
			tracedJobs += done
		default:
			plain = append(plain, r.dur.Seconds()*1e3)
			jobRuns = append(jobRuns, r.rec.jobRuns...)
			jobUS = append(jobUS, r.rec.jobIntervals()...)
			instrRate = append(instrRate, float64(r.report.Counters["instructions"])/r.dur.Seconds())
			jobRate = append(jobRate, done/r.dur.Seconds())
			gsJobs += done
		}
	}
	for _, rf := range refs {
		be, err := serve.NewLocalBackend(rf.cfg)
		if err != nil {
			return nil, err
		}
		rep, err := serve.Run(rf.cfg, be)
		be.Close()
		var j []byte
		if err == nil {
			j, err = rep.JSON()
		}
		if err == nil && !bytes.Equal(j, rf.json) {
			err = fmt.Errorf("serve-tcp report differs from serve-channel's")
		}
		if err != nil {
			res.fail(int64(rf.cfg.Jobs), fmt.Errorf("reference for seed %d: %w", rf.cfg.Seed, err))
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: serve tcp=%v: %d untraced runs of %d jobs, %d traced, %d job intervals, %d bring-ups, %d reports checked against the channel backend\n",
		tcp, len(plain), serveJobs, len(traced), len(jobUS), len(setups), len(refs))
	if first == nil {
		return nil, fmt.Errorf("warm-up run failed")
	}

	if !opt.trace {
		res.set("setup_s", "s", median(setups))
		// A job's run on the machine is its RunJob: install, inject, wait
		// for every halt, the serve counterpart of a Machine.Run.
		res.set("run_ms_p50", "ms", median(jobRuns))
		res.set("run_ms_p90", "ms", percentile(jobRuns, 0.9))
		res.set("instr_per_s", "1/s", median(instrRate))
		res.set("jobs_per_s", "1/s", median(jobRate))
		res.set("job_us_p50", "us", median(jobUS))
		res.set("job_us_p90", "us", percentile(jobUS, 0.9))
		res.set("alloc_kb_per_op", "KiB", ratio(float64(gs.bytes)/1024, gsJobs))
		res.set("max_rss_mb", "MiB", maxRSSMB())
		return res, res.finish(false)
	}

	c := first.Counters
	perJob := func(name string) float64 { return ratio(float64(c[name]), float64(first.Completed)) }
	remote := c["remote_reads"] + c["remote_writes"]
	res.set("machine.instructions", "count", perJob("instructions"))
	res.set("machine.migrations", "count", perJob("migrations"))
	res.set("machine.remote_ops", "count", ratio(float64(remote), float64(first.Completed)))
	res.set("machine.local_ops", "count", perJob("local_ops"))
	res.set("machine.context_flits", "count", perJob("context_flits"))
	res.set("core.migrate_share", "ratio", ratio(float64(c["migrations"]), float64(c["migrations"]+remote+c["lease_hits"])))
	scUS, err := checkSCPerJob(captured)
	if err != nil {
		return nil, fmt.Errorf("SC check of a captured job: %w", err)
	}
	res.set("machine.check_sc_us_per_job", "us", scUS)
	if tcp {
		res.set("transport.batches_per_job", "count", ratio(float64(net.BatchesSent), tracedJobs))
		res.set("transport.msgs_per_batch", "count", net.MsgsPerBatch())
		res.set("transport.bytes_per_job", "B", ratio(float64(net.BytesSent), tracedJobs))
	}
	res.set("serve.run_job_us_p50", "us", median(t.durations[spanRunJob]))
	res.set("serve.run_job_us_p99", "us", percentile(t.durations[spanRunJob], 0.99))
	res.set("serve.retire_us_p50", "us", median(t.durations[spanRetire]))
	res.set("serve.retire_us_p99", "us", percentile(t.durations[spanRetire], 0.99))
	res.set("serve.self_us_per_job", "us", ratio(t.self[spanRoot].Seconds()*1e6, tracedJobs))
	res.set("serve.backend_open_ms", "ms", median(setups)*1e3)
	res.set("serve.drain_ms", "ms", median(t.durations[spanDrain])/1e3)
	gs.report(res, gsJobs)
	res.set("trace.overhead_pct", "%", 100*(ratio(median(traced), median(plain))-1))
	res.set("trace.spans_per_op", "count", float64(sumCalls(t))/float64(max(t.ops, 1)))

	mesh := geom.NewMesh(serveW, serveH)
	u, err := measureUnitCosts(serveConfig(opt.seed, 0).Scheme, mesh)
	if err != nil {
		return nil, err
	}
	u.report(res, false)
	if err := printSpans(t, "serve.Run self: admission, job build, SC check, report"); err != nil {
		return nil, err
	}
	sends := float64(c["migrations"] + c["evictions"] + int64(firstThreads))
	items := []ledgerItem{
		{"machine.instr", u.instr, float64(c["instructions"])},
		{"machine.check_sc", scUS * 1e3, float64(first.Completed)},
	}
	if tcp {
		batches := ratio(float64(net.BatchesSent), tracedJobs) * float64(first.Completed)
		items = append(items,
			ledgerItem{"transport.codec_roundtrip", u.codecRoundtrip, sends},
			ledgerItem{"transport.batch_encode", u.batchEncode, batches},
			ledgerItem{"transport.batch_decode", u.batchDecode, batches})
	} else {
		items = append(items,
			ledgerItem{"transport.local_send", u.localSend, sends},
			ledgerItem{"transport.local_remote", u.localRemote, float64(remote + c["local_ops"])})
	}
	printLedger(res, "serve.Run", median(plain), items)
	if err := t.dump(opt.spanPath()); err != nil {
		return nil, err
	}
	return res, res.finish(true)
}
