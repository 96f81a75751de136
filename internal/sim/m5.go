package sim

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/wprog"
)

// M5 is the hybrid-coherence battery: the M4 compiled workloads executed
// under the lease-caching schemes — always-migrate as the pure-EM²
// baseline, cached-remote as the pure-caching point, and hybrid (leased
// reads + history-driven write migration) — on both transports, checked
// against the §3 trace model's predictions extended with the lease
// counters. Two properties are demanded per cell:
//
//   - Exactness: the runtime's migration / remote / local / context-flit /
//     lease-hit / lease-miss / lease-inval counters equal the trace
//     model's, on the channel transport and on a real two-node TCP
//     cluster. The lease cache and the virtual-time expiry clock are the
//     same code (core.LeaseCache) in both the model and the machine, so a
//     divergence means the machine's lease lifecycle (grant, fill, expiry,
//     own-write invalidation, drop-on-departure) drifted from the
//     specification.
//
//   - Transport bit-identity: channel and TCP runs at the same seed agree
//     bit-for-bit on final registers and the full per-core metrics
//     breakdown (including the lease counters), and on the final memory
//     image for single-writer workloads. Write-update invalidations ride
//     an advisory frame (FrameLeaseInval) whose delivery timing differs
//     across transports; identity here proves timing never reaches a
//     deterministic surface.
//
// The platform is the M4 one: 2x2 mesh, page-striped placement (which
// reproduces the trace's first-touch homes — DESIGN.md §2), quantum 16,
// GuestContexts 0.

// m5Schemes spans the design space: pure migration, pure caching, and the
// hybrid. The explicit hybrid window (16) is deliberately smaller than
// the default so the workloads exercise virtual-time expiry, not just
// write-update invalidation.
var m5Schemes = []string{"always-migrate", "cached-remote", "hybrid:16"}

// m5Rows runs one compiled workload under every lease-era scheme and
// renders one row per scheme with model/channel/TCP counts side by side.
func m5Rows(name string, cfg workload.Config, seed uint64) [][]string {
	cfg.Seed = seed
	c, err := wprog.CompileWorkload(name, cfg, m3Mesh().Cores())
	if err != nil {
		panic(fmt.Sprintf("sim: m5 %s: %v", name, err))
	}
	var rows [][]string
	for _, schemeName := range m5Schemes {
		scheme, err := machine.ParseScheme(schemeName, m3Mesh())
		if err != nil {
			panic(err)
		}
		model, err := c.Predict(m3Mesh(), scheme, m4Placement(), 0)
		if err != nil {
			panic(fmt.Sprintf("sim: m5 %s/%s: %v", name, schemeName, err))
		}
		want := wprog.ModelCounts(model, scheme)
		ch, tcp, err := runBoth(m4Config(schemeName), c.Litmus())
		if err != nil {
			panic(fmt.Sprintf("sim: m5 %s/%s: %v", name, schemeName, err))
		}
		chC, tcpC := wprog.RuntimeCounts(ch), wprog.RuntimeCounts(tcp)
		verdict := "exact"
		if len(want.Diff(chC)) != 0 || len(want.Diff(tcpC)) != 0 {
			verdict = "MISMATCH(model)"
		} else if err := m5BitIdentical(c, ch, tcp); err != nil {
			verdict = "MISMATCH(transport)"
		}
		rows = append(rows, stats.FormatRow(name, schemeName,
			fmt.Sprintf("%d/%d/%d", want.Migrations, chC.Migrations, tcpC.Migrations),
			fmt.Sprintf("%d/%d/%d", want.RemoteOps, chC.RemoteOps, tcpC.RemoteOps),
			fmt.Sprintf("%d/%d/%d", want.LocalOps, chC.LocalOps, tcpC.LocalOps),
			fmt.Sprintf("%d-%d-%d", want.LeaseHits, want.LeaseMisses, want.LeaseInvals),
			verdict))
	}
	return rows
}

// m5BitIdentical demands the deterministic surfaces agree bit-for-bit
// across transports: final registers, the full per-core metrics breakdown
// (including lease counters), and — for single-writer workloads — the
// final memory image.
func m5BitIdentical(c *wprog.Compiled, ch, tcp *machine.Result) error {
	if len(ch.FinalRegs) != len(tcp.FinalRegs) {
		return fmt.Errorf("final-reg thread counts differ: %d vs %d", len(ch.FinalRegs), len(tcp.FinalRegs))
	}
	for t := range ch.FinalRegs {
		if ch.FinalRegs[t] != tcp.FinalRegs[t] {
			return fmt.Errorf("thread %d final registers differ across transports", t)
		}
	}
	if len(ch.PerCore) != len(tcp.PerCore) {
		return fmt.Errorf("per-core row counts differ: %d vs %d", len(ch.PerCore), len(tcp.PerCore))
	}
	for i := range ch.PerCore {
		if ch.PerCore[i] != tcp.PerCore[i] {
			return fmt.Errorf("core %d metrics differ across transports: %+v vs %+v",
				ch.PerCore[i].Core, ch.PerCore[i], tcp.PerCore[i])
		}
	}
	if !c.Deterministic {
		return nil
	}
	if len(ch.Mem) != len(tcp.Mem) {
		return fmt.Errorf("memory images differ in size: %d vs %d words", len(ch.Mem), len(tcp.Mem))
	}
	//em2:unordered-ok: set-equality check; which differing address is reported first is diagnostic only, the verdict is order-independent
	for a, v := range ch.Mem {
		if tv, ok := tcp.Mem[a]; !ok || tv != v {
			return fmt.Errorf("memory images differ at %#x: %#x vs %#x", a, v, tv)
		}
	}
	return nil
}

// M5Cells decomposes M5: one cell per compiled workload, byte-stable at
// any parallelism (each cell is a pure function of its seed).
func M5Cells(p Platform) CellSet {
	wls := m4Workloads()
	cells := make([]Cell, 0, len(wls))
	for _, w := range wls {
		w := w
		cells = append(cells, Cell{
			Label: w.name,
			Run:   func(seed uint64) [][]string { return m5Rows(w.name, w.cfg, seed) },
		})
	}
	return CellSet{
		Name:  "m5",
		Title: "M5 — hybrid coherence (lease caching) on the real machine vs §3 trace-model predictions (2x2 mesh, page-striped, model/channel/tcp)",
		Headers: []string{
			"workload", "scheme", "migrations", "remote ops", "local ops", "lease h-m-i", "check"},
		Cells: cells,
	}
}

// M5 runs the hybrid-coherence battery serially.
func M5(p Platform) *stats.Table {
	return M5Cells(p).RunSerial(p.Seed)
}
