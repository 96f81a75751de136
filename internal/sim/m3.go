package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/placement"
	"repro/internal/stats"
	"repro/internal/trace"
)

// M3 is the runtime-vs-model experiment: the same memory-access sequences
// execute three ways — through the §3 trace-model engine, through the
// concurrent runtime on the in-process channel transport, and through a
// real TCP cluster — under every parseable decision scheme, and the
// runtime-measured message counts must match the model's predictions.
//
// On the deterministic micro-workloads (single-thread address walks, whose
// access stream does not depend on scheduling) the match is *exact*:
//
//   - migrations: identical in all three executions;
//   - remote round trips: identical;
//   - completed local accesses: the runtime counts model.Local +
//     model.Migrations, because a migrated access re-executes and completes
//     locally at the home core (the model books it under "migrated", the
//     runtime's local counter sees the completed access) — the documented,
//     deterministic offset;
//   - context flits: (migrations + evictions) x machine.ContextFlitsFor
//     (with GuestContexts 0 there are no evictions).
//
// The multi-threaded litmus programs are schedule-dependent, so their rows
// assert the schedule-independent properties only: both transports run
// SC-clean and pass the litmus post-condition under every scheme.

// m3Mesh is the experiment platform: a 2x2 mesh with 64-byte striping, so
// four distinct homes and short programs whose immediates survive the wire.
func m3Mesh() geom.Mesh { return geom.NewMesh(2, 2) }

// m3Schemes are the decision schemes under test, by wire name (also
// exercising machine.ParseScheme, the path a cluster node takes).
var m3Schemes = []string{"always-migrate", "always-remote", "distance:1", "history:2"}

// M3MicroLitmuses exposes the deterministic M3 micro-workloads as litmus
// programs, for the benchmark subsystem: em2bench drives the exact access
// sequences whose runtime message counts the M3 experiment validates
// against the model.
func M3MicroLitmuses() []machine.Litmus {
	var lits []machine.Litmus
	for _, m := range m3Micros() {
		lits = append(lits, machine.Litmus{
			Name:          "m3-" + m.name,
			Threads:       []machine.ThreadSpec{{Program: m.program()}},
			Deterministic: true,
		})
	}
	return lits
}

// m3Micro is one deterministic micro-workload: a single thread reading the
// given addresses in order. The same sequence becomes an ISA program (for
// the runtime) and a trace (for the model).
type m3Micro struct {
	name  string
	addrs []uint32
}

// m3Micros spans the decision-relevant shapes: isolated ping-pong accesses
// (runs of 1), long revisited runs (what the history predictor learns), and
// a round-robin walk over every home.
func m3Micros() []m3Micro {
	var micros []m3Micro

	pp := m3Micro{name: "pingpong"}
	for i := 0; i < 8; i++ {
		pp.addrs = append(pp.addrs, 0, 64)
	}
	micros = append(micros, pp)

	runs := m3Micro{name: "runs"}
	for rep := 0; rep < 2; rep++ {
		for _, base := range []uint32{64, 128} {
			for i := uint32(0); i < 6; i++ {
				runs.addrs = append(runs.addrs, base+4*i)
			}
		}
	}
	micros = append(micros, runs)

	walk := m3Micro{name: "walk"}
	for rep := 0; rep < 4; rep++ {
		for c := uint32(0); c < 4; c++ {
			walk.addrs = append(walk.addrs, 64*c)
		}
	}
	return append(micros, walk)
}

// program lowers the address walk to the ISA.
func (m m3Micro) program() []isa.Instr {
	prog := make([]isa.Instr, 0, len(m.addrs)+1)
	for _, a := range m.addrs {
		prog = append(prog, isa.Instr{Op: isa.LW, Rd: 1, Rs: 0, Imm: int32(a)})
	}
	return append(prog, isa.Instr{Op: isa.HALT})
}

// trace lifts the address walk to a single-thread memory trace.
func (m m3Micro) trace() *trace.Trace {
	tr := trace.New("m3-"+m.name, 1)
	for _, a := range m.addrs {
		tr.Append(trace.Access{Thread: 0, Addr: trace.Addr(a)})
	}
	return tr
}

// m3ModelCounts runs the trace through the §3 engine and returns its
// predicted message counts.
func m3ModelCounts(scheme core.Scheme, tr *trace.Trace) (mig, remote, local int64) {
	cfg := core.DefaultConfig()
	cfg.Mesh = m3Mesh()
	cfg.GuestContexts = 0
	cfg.ChargeMemory = false
	eng, err := core.NewEngine(cfg, placement.NewStriped(64, cfg.Mesh.Cores()), scheme)
	if err != nil {
		panic(err)
	}
	res, err := eng.Run(tr, nil)
	if err != nil {
		panic(err)
	}
	return res.Migrations, res.RemoteAccesses, res.Local
}

// runBoth runs lit under cfg, with the execution recorded for the SC
// check, on the M3 platform twice: on the in-process channel machine, and
// then on a two-node TCP-loopback cluster. The first failure stops it.
func runBoth(cfg machine.ClusterConfig, lit machine.Litmus) (ch, tcp *machine.Result, err error) {
	cfg.LogEvents = true
	run := func(nodes int) (*machine.Result, error) {
		r, err := machine.NewRunner(m3Mesh(), nodes, cfg)
		if err != nil {
			return nil, err
		}
		return r.Run(lit)
	}
	if ch, err = run(0); err != nil {
		return nil, nil, err
	}
	if tcp, err = run(2); err != nil {
		return nil, nil, err
	}
	return ch, tcp, nil
}

// m3Config is the runtime configuration matching m3ModelCounts.
func m3Config(scheme string) machine.ClusterConfig {
	return machine.ClusterConfig{Quantum: 8, Scheme: scheme, Placement: "striped:64"}
}

// m3MicroRows runs one micro-workload under every scheme and renders one
// row per scheme with the model/channel/TCP counts side by side.
func m3MicroRows(m m3Micro) [][]string {
	lit := machine.Litmus{Name: m.name, Threads: []machine.ThreadSpec{{Program: m.program()}}}
	tr := m.trace()
	var rows [][]string
	for _, name := range m3Schemes {
		scheme, err := machine.ParseScheme(name, m3Mesh())
		if err != nil {
			panic(err)
		}
		mig, remote, local := m3ModelCounts(scheme, tr)
		ch, tcp, err := runBoth(m3Config(name), lit)
		if err != nil {
			panic(fmt.Sprintf("sim: m3 %s/%s: %v", m.name, name, err))
		}
		// The model books a migrated access under "migrated"; the runtime's
		// local counter additionally sees it complete at the home core.
		wantLocal := local + mig
		wantFlits := mig * machine.ContextFlitsFor(scheme)
		ok := mig == ch.Migrations && mig == tcp.Migrations &&
			remote == ch.RemoteReads+ch.RemoteWrites && remote == tcp.RemoteReads+tcp.RemoteWrites &&
			wantLocal == ch.LocalOps && wantLocal == tcp.LocalOps &&
			wantFlits == ch.ContextFlits && wantFlits == tcp.ContextFlits
		verdict := "exact"
		if !ok {
			verdict = "MISMATCH"
		}
		rows = append(rows, stats.FormatRow(m.name, name,
			fmt.Sprintf("%d/%d/%d", mig, ch.Migrations, tcp.Migrations),
			fmt.Sprintf("%d/%d/%d", remote, ch.RemoteReads+ch.RemoteWrites, tcp.RemoteReads+tcp.RemoteWrites),
			fmt.Sprintf("%d/%d/%d", wantLocal, ch.LocalOps, tcp.LocalOps),
			fmt.Sprintf("%d/%d/%d", wantFlits, ch.ContextFlits, tcp.ContextFlits),
			verdict))
	}
	return rows
}

// m3LitmusRows runs one litmus program under every scheme on both
// transports. Counts are schedule-dependent, so the row reports only the
// schedule-independent verdict: SC-clean and litmus-clean everywhere.
func m3LitmusRows(lit machine.Litmus) [][]string {
	var rows [][]string
	for _, name := range m3Schemes {
		verdict := "sc+litmus ok"
		if _, _, err := runBoth(m3Config(name), lit); err != nil {
			verdict = err.Error()
		}
		rows = append(rows, stats.FormatRow(lit.Name, name, "-", "-", "-", "-", verdict))
	}
	return rows
}

// M3Cells decomposes M3: one cell per micro-workload and one per litmus
// program. Every cell is deterministic (the micro counts exactly, the
// litmus verdicts by SC), so the table is byte-stable at any parallelism.
func M3Cells(p Platform) CellSet {
	micros := m3Micros()
	cells := make([]Cell, 0, len(micros)+2)
	for _, m := range micros {
		m := m
		cells = append(cells, Cell{
			Label: m.name,
			Run:   func(uint64) [][]string { return m3MicroRows(m) },
		})
	}
	for _, lit := range []machine.Litmus{
		machine.AtomicCounterLitmus(4, 10),
		machine.MessagePassingLitmus(128), // flag homed on the far TCP node
	} {
		lit := lit
		cells = append(cells, Cell{
			Label: lit.Name,
			Run:   func(uint64) [][]string { return m3LitmusRows(lit) },
		})
	}
	return CellSet{
		Name:  "m3",
		Title: "M3 — concurrent-runtime message counts vs §3 trace-model predictions (2x2 mesh, striped:64, model/channel/tcp)",
		Headers: []string{
			"workload", "scheme", "migrations", "remote ops", "local ops", "context flits", "check"},
		Cells: cells,
	}
}

// M3 runs the runtime-vs-model comparison serially.
func M3(p Platform) *stats.Table {
	return M3Cells(p).RunSerial(p.Seed)
}
