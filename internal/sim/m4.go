package sim

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/placement"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/wprog"
)

// M4 extends the M3 runtime-vs-model result from hand-written micro
// address walks to the SPLASH-2 stand-in workloads: each workload's trace
// is compiled to real ISA programs (internal/wprog), executed on the
// concurrent runtime over both transports — in-process channels and a real
// two-node TCP cluster — and the runtime's migration / remote / local /
// context-flit counters must equal the §3 trace model's predictions
// exactly, under every parseable decision scheme.
//
// The platform is the M3 one (2x2 mesh) with page-striped placement: the
// compaction assigns page indices congruent to each page's first-touch home
// mod cores, so page-striping the compacted addresses reproduces the
// original trace's first-touch homes (DESIGN.md §2). GuestContexts is 0, so
// there are no schedule-dependent evictions and the match is exact, with
// the documented M3 offsets (a migrated access completes locally at home;
// flits = migrations × per-context footprint).

// m4Workloads are the compiled workloads and their sizes: small enough for
// a sweep cell, large enough that every scheme sees real migration traffic.
func m4Workloads() []struct {
	name string
	cfg  workload.Config
} {
	return []struct {
		name string
		cfg  workload.Config
	}{
		{"ocean", workload.Config{Threads: 4, Scale: 12, Iters: 1}},
		{"fft", workload.Config{Threads: 4, Scale: 16, Iters: 1}},
		{"barnes", workload.Config{Threads: 4, Scale: 4, Iters: 1}},
	}
}

func m4Placement() placement.Policy {
	return placement.NewPageStriped(placement.DefaultPageBytes, m3Mesh().Cores())
}

// m4Config is the M4/M5 runtime configuration: the M3 platform with
// page-striped placement at quantum 16.
func m4Config(scheme string) machine.ClusterConfig {
	return machine.ClusterConfig{Quantum: 16, Scheme: scheme,
		Placement: fmt.Sprintf("page-striped:%d", placement.DefaultPageBytes)}
}

// m4Rows runs one compiled workload under every scheme and renders one row
// per scheme with the model/channel/TCP counts side by side.
func m4Rows(name string, cfg workload.Config, seed uint64) [][]string {
	cfg.Seed = seed
	c, err := wprog.CompileWorkload(name, cfg, m3Mesh().Cores())
	if err != nil {
		panic(fmt.Sprintf("sim: m4 %s: %v", name, err))
	}
	var rows [][]string
	for _, schemeName := range m3Schemes {
		scheme, err := machine.ParseScheme(schemeName, m3Mesh())
		if err != nil {
			panic(err)
		}
		model, err := c.Predict(m3Mesh(), scheme, m4Placement(), 0)
		if err != nil {
			panic(fmt.Sprintf("sim: m4 %s/%s: %v", name, schemeName, err))
		}
		want := wprog.ModelCounts(model, scheme)
		ch, tcp, err := runBoth(m4Config(schemeName), c.Litmus())
		if err != nil {
			panic(fmt.Sprintf("sim: m4 %s/%s: %v", name, schemeName, err))
		}
		chC, tcpC := wprog.RuntimeCounts(ch), wprog.RuntimeCounts(tcp)
		verdict := "exact"
		if len(want.Diff(chC)) != 0 || len(want.Diff(tcpC)) != 0 {
			verdict = "MISMATCH"
		}
		rows = append(rows, stats.FormatRow(name, schemeName,
			fmt.Sprintf("%d/%d/%d", want.Migrations, chC.Migrations, tcpC.Migrations),
			fmt.Sprintf("%d/%d/%d", want.RemoteOps, chC.RemoteOps, tcpC.RemoteOps),
			fmt.Sprintf("%d/%d/%d", want.LocalOps, chC.LocalOps, tcpC.LocalOps),
			fmt.Sprintf("%d/%d/%d", want.ContextFlits, chC.ContextFlits, tcpC.ContextFlits),
			verdict))
	}
	return rows
}

// M4Cells decomposes M4: one cell per compiled workload. Each cell is a
// pure function of its seed (the seed becomes the workload seed), so the
// table is byte-stable at any parallelism.
func M4Cells(p Platform) CellSet {
	wls := m4Workloads()
	cells := make([]Cell, 0, len(wls))
	for _, w := range wls {
		w := w
		cells = append(cells, Cell{
			Label: w.name,
			Run:   func(seed uint64) [][]string { return m4Rows(w.name, w.cfg, seed) },
		})
	}
	return CellSet{
		Name:  "m4",
		Title: "M4 — compiled SPLASH-2 stand-ins on the real machine vs §3 trace-model predictions (2x2 mesh, page-striped, model/channel/tcp)",
		Headers: []string{
			"workload", "scheme", "migrations", "remote ops", "local ops", "context flits", "check"},
		Cells: cells,
	}
}

// M4 runs the compiled-workload runtime-vs-model comparison serially.
func M4(p Platform) *stats.Table {
	return M4Cells(p).RunSerial(p.Seed)
}
