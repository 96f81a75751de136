package machine

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/transport"
)

// runOnTCP executes lit on an nodes-wide TCP-loopback cluster whose node
// endpoints run in-process (goroutines hosting ServeNode) — real sockets,
// real gob frames, real ContextWireBytes serialization, without process-
// spawn overhead. The separate multi-process test lives in cluster_test.go.
func runOnTCP(t *testing.T, nodes, w, h int, cfg ClusterConfig, lit Litmus) *Result {
	t.Helper()
	man, err := transport.LocalManifest(nodes, w, h)
	if err != nil {
		t.Fatal(err)
	}
	wait := HostNodes(man)
	res, err := ClusterRun{Manifest: man, Config: cfg, Threads: lit.Threads, Mem: lit.Mem}.Run()
	if err != nil {
		t.Fatal(err)
	}
	awaitNodes(t, wait, 30*time.Second)
	if err := CheckSCFrom(lit.Mem, res.Events); err != nil {
		t.Fatalf("%s over TCP: SC violation: %v", lit.Name, err)
	}
	if lit.Check != nil {
		read := func(a uint32) uint32 { return res.Mem[a] }
		if err := lit.Check(read, res.FinalRegs); err != nil {
			t.Fatalf("%s over TCP: %v", lit.Name, err)
		}
	}
	return res
}

// TestDifferentialInProcVsTCP runs the same programs on the in-process
// channel transport and on a TCP cluster, demanding SC-equivalent results
// (both executions pass the SC checker) and — for programs with
// schedule-independent outcomes — bit-identical final memory images and
// register files.
func TestDifferentialInProcVsTCP(t *testing.T) {
	t.Parallel()
	cases := []Litmus{
		MessagePassingLitmus(128), // flag homed on the far node
		AtomicCounterLitmus(4, sized(40, 10)),
	}
	for seed := 0; seed < sized(6, 2); seed++ {
		cases = append(cases, RandomLitmus(uint64(seed), RandOpts{PrivateWrites: true}))
	}
	for seed := 0; seed < sized(4, 2); seed++ {
		cases = append(cases, RandomLitmus(uint64(seed), RandOpts{}))
	}

	for _, lit := range cases {
		t.Run(lit.Name, func(t *testing.T) {
			cfg := litmusConfig()
			inproc := runLitmus(t, cfg, lit)
			tcp := runOnTCP(t, 2, 2, 2, ClusterConfig{
				GuestContexts: cfg.GuestContexts,
				Quantum:       cfg.Quantum,
				Scheme:        "always-migrate",
				Placement:     "striped:64",
				LogEvents:     true,
			}, lit)

			inMem, tcpMem := inproc.Mem, tcp.Mem
			if lit.Deterministic {
				if !reflect.DeepEqual(inMem, tcpMem) {
					t.Fatalf("final memory images differ:\n in-proc %v\n tcp     %v",
						inMem, tcpMem)
				}
				if !reflect.DeepEqual(inproc.FinalRegs, tcp.FinalRegs) {
					t.Fatalf("final registers differ:\n in-proc %v\n tcp     %v",
						inproc.FinalRegs, tcp.FinalRegs)
				}
			} else {
				// Schedule-dependent programs must still agree on which
				// addresses exist (same footprint, both SC — checked above).
				if len(inMem) != len(tcpMem) {
					t.Fatalf("memory footprints differ: %d vs %d words", len(inMem), len(tcpMem))
				}
			}
			// Op totals are deliberately not compared even for
			// deterministic programs: a spin loop (MP's reader) retires a
			// schedule-dependent number of loads while still producing a
			// deterministic outcome.
		})
	}
}

// TestServeNodeShutdownWithoutRun: a coordinator that aborts before
// loading (or before collecting) must still release the node processes —
// ServeNode returns instead of parking forever on Loads/CollectRequests.
func TestServeNodeShutdownWithoutRun(t *testing.T) {
	t.Parallel()
	man, err := transport.LocalManifest(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	wait := HostNodes(man)
	co, err := transport.DialCluster(man, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	co.Shutdown()
	co.Close()
	awaitNodes(t, wait, 10*time.Second)
}

// awaitNodes requires every HostNodes node to exit cleanly within limit.
func awaitNodes(t *testing.T, wait func() error, limit time.Duration) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("node exited: %v", err)
		}
	case <-time.After(limit):
		t.Fatal("node did not exit after shutdown")
	}
}

// TestClusterSchemeAndPlacementParsing pins the wire-name parsers: what
// they accept (including the stateful history:N) and that rejections
// enumerate the valid wire names so the errors are actionable.
func TestClusterSchemeAndPlacementParsing(t *testing.T) {
	t.Parallel()
	cfg := litmusConfig()
	if _, err := ParsePlacement("striped:32", 4); err != nil {
		t.Error(err)
	}
	if _, err := ParsePlacement("page-striped", 4); err != nil {
		t.Error(err)
	}
	if _, err := ParsePlacement("first-touch", 4); err == nil {
		t.Error("first-touch accepted for a cluster")
	}
	if _, err := ParsePlacement("striped:x", 4); err == nil {
		t.Error("bad striped arg accepted")
	}
	if _, err := ParseScheme("distance:2", cfg.Mesh); err != nil {
		t.Error(err)
	}
	if s, err := ParseScheme("history:2", cfg.Mesh); err != nil {
		t.Error(err)
	} else if s.Name() != "history>=2" {
		t.Errorf("history:2 parsed to %q", s.Name())
	}
	if _, err := ParseScheme("history:0", cfg.Mesh); err == nil {
		t.Error("non-positive history threshold accepted")
	}
	if _, err := ParseScheme("history:x", cfg.Mesh); err == nil {
		t.Error("bad history arg accepted")
	}
	if _, err := ParseScheme("oracle", cfg.Mesh); err == nil {
		t.Error("oracle scheme accepted for a cluster")
	}
	// Rejections must name every valid wire name.
	_, err := ParseScheme("nope", cfg.Mesh)
	if err == nil {
		t.Fatal("unknown scheme accepted")
	}
	for _, want := range SchemeNames() {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("scheme error %q does not mention %q", err, want)
		}
	}
	_, err = ParsePlacement("nope", 4)
	if err == nil {
		t.Fatal("unknown placement accepted")
	}
	for _, want := range PlacementNames() {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("placement error %q does not mention %q", err, want)
		}
	}
}

// TestDifferentialHistoryScheme is the stateful-scheme acceptance test: the
// same deterministic programs run under history:2 on the channel transport
// and on a TCP cluster, with the predictor state crossing the wire inside
// each migrating context. Both runs must be SC-clean and produce
// bit-identical final memory, final registers, AND identical per-core
// runtime metrics — migrations, remote round trips, local hits,
// instructions, and context flits all land on the same cores.
// GuestContexts is 0 so no schedule-dependent evictions perturb the counts.
func TestDifferentialHistoryScheme(t *testing.T) {
	t.Parallel()
	for seed := 0; seed < sized(4, 2); seed++ {
		lit := RandomLitmus(uint64(seed), RandOpts{PrivateWrites: true})
		t.Run(lit.Name, func(t *testing.T) {
			t.Parallel()
			cfg := litmusConfig()
			cfg.GuestContexts = 0
			cfg.Scheme = core.NewHistory(2)
			inproc := runLitmus(t, cfg, lit)
			tcp := runOnTCP(t, 2, 2, 2, ClusterConfig{
				Quantum:   cfg.Quantum,
				Scheme:    "history:2",
				Placement: "striped:64",
				LogEvents: true,
			}, lit)
			if !reflect.DeepEqual(inproc.Mem, tcp.Mem) {
				t.Fatalf("final memory images differ:\n in-proc %v\n tcp     %v", inproc.Mem, tcp.Mem)
			}
			if !reflect.DeepEqual(inproc.FinalRegs, tcp.FinalRegs) {
				t.Fatalf("final registers differ:\n in-proc %v\n tcp     %v", inproc.FinalRegs, tcp.FinalRegs)
			}
			if !reflect.DeepEqual(inproc.PerCore, tcp.PerCore) {
				t.Fatalf("per-core metrics differ:\n in-proc %+v\n tcp     %+v", inproc.PerCore, tcp.PerCore)
			}
			if inproc.Migrations == 0 {
				t.Error("history scheme produced no migrations on a cross-home workload")
			}
		})
	}
}

// TestClusterRemoteAccessScheme runs a TCP cluster under always-remote:
// contexts stay put and every non-local access is a wire round trip.
func TestClusterRemoteAccessScheme(t *testing.T) {
	t.Parallel()
	lit := AtomicCounterLitmus(4, sized(20, 8))
	res := runOnTCP(t, 2, 2, 2, ClusterConfig{
		Scheme:    "always-remote",
		LogEvents: true,
	}, lit)
	if res.Migrations != 0 {
		t.Errorf("always-remote migrated %d times", res.Migrations)
	}
	if res.RemoteReads+res.RemoteWrites == 0 {
		t.Error("always-remote performed no remote accesses")
	}
}

// TestClusterRunValidation: coordinator-side fail-fast paths.
func TestClusterRunValidation(t *testing.T) {
	t.Parallel()
	man, err := transport.LocalManifest(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	lit := MessagePassingLitmus(64)
	run := func(cfg ClusterConfig, threads []ThreadSpec) error {
		_, err := ClusterRun{Manifest: man, Config: cfg, Threads: threads}.Run()
		return err
	}
	if err := run(ClusterConfig{}, nil); err == nil {
		t.Error("no threads accepted")
	}
	if err := run(ClusterConfig{Placement: "first-touch"}, lit.Threads); err == nil {
		t.Error("first-touch accepted")
	}
	if err := run(ClusterConfig{Scheme: "nope"}, lit.Threads); err == nil {
		t.Error("unknown scheme accepted")
	}
	if err := run(ClusterConfig{GuestContexts: -1}, lit.Threads); err == nil {
		t.Error("negative guest contexts accepted (nodes would all reject the load)")
	}
	// An atomic with an immediate too wide for its 11-bit field would
	// silently execute a different address on the far side; the encoder
	// check must reject it before anything ships.
	wide := []ThreadSpec{{Program: []isa.Instr{
		{Op: isa.FAA, Rd: 4, Rs: 0, Rt: 3, Imm: 5000},
		{Op: isa.HALT},
	}}}
	if err := run(ClusterConfig{}, wide); err == nil {
		t.Error("wire-unsafe immediate accepted")
	}
	bad := ThreadSpec{Program: lit.Threads[0].Program, Regs: map[int]uint32{0: 1}}
	if err := run(ClusterConfig{}, []ThreadSpec{bad}); err == nil {
		t.Error("write to r0 accepted")
	}
}
