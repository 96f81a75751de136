package wprog

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/placement"
	"repro/internal/transport"
	"repro/internal/workload"
)

// testMesh is the battery platform: 2x2, four distinct homes, two TCP
// nodes of two cores each — the same shape the M3 experiment validated.
func testMesh() geom.Mesh { return geom.NewMesh(2, 2) }

// smallConfigs sizes each workload so compiled programs stay in the
// thousands of instructions; threads = cores so every core has a native.
func smallConfigs() map[string]workload.Config {
	return map[string]workload.Config{
		"ocean":    {Threads: 4, Scale: 12, Iters: 1, Seed: 1},
		"fft":      {Threads: 4, Scale: 8, Iters: 1, Seed: 1},
		"barnes":   {Threads: 4, Scale: 4, Iters: 1, Seed: 2},
		"lu":       {Threads: 4, Scale: 3, Iters: 1, Seed: 1},
		"radix":    {Threads: 4, Scale: 8, Iters: 1, Seed: 3},
		"private":  {Threads: 4, Scale: 8, Iters: 1, Seed: 1},
		"uniform":  {Threads: 4, Scale: 4, Iters: 1, Seed: 4},
		"pingpong": {Threads: 4, Scale: 6, Iters: 1, Seed: 1},
		"hotspot":  {Threads: 4, Scale: 12, Iters: 1, Seed: 1},
	}
}

func compileSmall(t *testing.T, name string) *Compiled {
	t.Helper()
	cfg, ok := smallConfigs()[name]
	if !ok {
		t.Fatalf("no small config for %q", name)
	}
	c, err := CompileWorkload(name, cfg, testMesh().Cores())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testSchemes(t *testing.T) []string {
	if testing.Short() {
		return []string{"always-migrate", "history:2"}
	}
	return []string{"always-migrate", "always-remote", "distance:1", "history:2"}
}

func parseScheme(t *testing.T, name string) core.Scheme {
	t.Helper()
	s, err := machine.ParseScheme(name, testMesh())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runChannel executes the compiled workload on the in-process channel
// transport, SC-checks the execution from the preload image, and runs the
// register-summary check.
func runChannel(t *testing.T, c *Compiled, scheme core.Scheme, place placement.Policy, guests int) *machine.Result {
	t.Helper()
	m, err := machine.New(machine.Config{
		Mesh:          testMesh(),
		GuestContexts: guests,
		Placement:     place,
		Scheme:        scheme,
		Quantum:       16,
		LogEvents:     true,
	}, len(c.Threads))
	if err != nil {
		t.Fatal(err)
	}
	// Preloading each page's marker with by = preserved home is what binds
	// pages correctly under first-touch placement; static placements ignore
	// the toucher.
	for _, pg := range c.Pages {
		m.Preload(pg.Base, c.Mem[pg.Base], pg.Home)
	}
	res, err := m.Run(c.Threads)
	if err != nil {
		t.Fatal(err)
	}
	if err := machine.CheckSCFrom(c.Mem, res.Events); err != nil {
		t.Fatalf("%s channel: SC violation: %v", c.Name, err)
	}
	lit := c.Litmus()
	if err := lit.Check(m.Read, res.FinalRegs); err != nil {
		t.Fatalf("%s channel: %v", c.Name, err)
	}
	return res
}

// runTCP executes the compiled workload on a two-node TCP-loopback cluster
// (node endpoints in-process), SC-checks, and runs the summary check.
func runTCP(t *testing.T, c *Compiled, schemeName, placeName string, guests int) *machine.Result {
	t.Helper()
	mesh := testMesh()
	man, err := transport.LocalManifest(2, mesh.Width(), mesh.Height())
	if err != nil {
		t.Fatal(err)
	}
	wait := machine.HostNodes(man)
	res, err := machine.ClusterRun{
		Manifest: man,
		Config: machine.ClusterConfig{
			GuestContexts: guests,
			Quantum:       16,
			Scheme:        schemeName,
			Placement:     placeName,
			LogEvents:     true,
			Timeout:       120 * time.Second,
		},
		Threads: c.Threads,
		Mem:     c.Mem,
	}.Run()
	if nerr := wait(); err == nil {
		err = nerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := machine.CheckSCFrom(c.Mem, res.Events); err != nil {
		t.Fatalf("%s tcp: SC violation: %v", c.Name, err)
	}
	lit := c.Litmus()
	read := func(a uint32) uint32 { return res.Mem[a] }
	if err := lit.Check(read, res.FinalRegs); err != nil {
		t.Fatalf("%s tcp: %v", c.Name, err)
	}
	return res
}

// TestCompileMapping pins the compaction invariants for every registered
// workload: the compacted trace has the same shape (length, threads,
// per-access thread and write flag), preserves within-page offsets, maps
// pages injectively, and — the home-preservation theorem — gives every
// access the same home under page-striped placement on compacted addresses
// as first-touch placement gave it on the original trace.
func TestCompileMapping(t *testing.T) {
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			cfg := smallConfigs()[name]
			g, err := workload.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			orig := g(cfg)
			c, err := Compile(orig, testMesh().Cores())
			if err != nil {
				t.Fatal(err)
			}
			if c.Trace.Len() != orig.Len() {
				t.Fatalf("compacted trace has %d accesses, original %d", c.Trace.Len(), orig.Len())
			}
			ft := placement.NewFirstTouch(PageBytes)
			ps := placement.NewPageStriped(PageBytes, c.Cores)
			bases := make(map[uint32]bool)
			for _, pg := range c.Pages {
				if bases[pg.Base] {
					t.Fatalf("page base %#x assigned twice", pg.Base)
				}
				bases[pg.Base] = true
				if want := geom.CoreID(int(pg.Base/PageBytes) % c.Cores); pg.Home != want {
					t.Fatalf("page %#x preserved home %d but page-stripes to %d", pg.Base, pg.Home, want)
				}
			}
			for i := range orig.Accesses {
				o, m := orig.Accesses[i], c.Trace.Accesses[i]
				if o.Thread != m.Thread || o.Write != m.Write {
					t.Fatalf("access %d changed shape: %+v vs %+v", i, o, m)
				}
				if o.Addr%PageBytes != m.Addr%PageBytes {
					t.Fatalf("access %d offset not preserved: %#x vs %#x", i, uint64(o.Addr), uint64(m.Addr))
				}
				oHome := ft.Touch(o.Addr, geom.CoreID(o.Thread%c.Cores))
				mHome := ps.Touch(m.Addr, geom.CoreID(m.Thread%c.Cores))
				if oHome != mHome {
					t.Fatalf("access %d home not preserved: first-touch %d, compacted page-striped %d", i, oHome, mHome)
				}
			}
			// Single-writer classification drives the differential battery:
			// the flag must equal "no address has two writing threads" on
			// the original trace.
			writers := make(map[uint64]int)
			wantDet := true
			for _, a := range orig.Accesses {
				if !a.Write {
					continue
				}
				if w, ok := writers[uint64(a.Addr)]; ok && w != a.Thread {
					wantDet = false
				}
				writers[uint64(a.Addr)] = a.Thread
			}
			if c.Deterministic != wantDet {
				t.Errorf("Deterministic = %v, want %v", c.Deterministic, wantDet)
			}
			// The battery relies on the flagship three being single-writer.
			if (name == "ocean" || name == "fft" || name == "barnes") && !c.Deterministic {
				t.Errorf("%s must be single-writer (differential battery compares memory bit-for-bit)", name)
			}
			// And the contended workloads must exercise the multi-writer path.
			if (name == "radix" || name == "pingpong") && c.Deterministic {
				t.Errorf("%s unexpectedly single-writer at this config", name)
			}
		})
	}
}

// TestCompactionPreservesModel is the model-side half of the theorem: the
// §3 engine run on the original trace under first-touch produces exactly
// the counts it produces on the compacted trace under page-striped
// placement, for every scheme (the history predictor sees isomorphic page
// identities, distance sees identical homes).
func TestCompactionPreservesModel(t *testing.T) {
	mesh := testMesh()
	for _, name := range []string{"ocean", "fft", "barnes", "radix"} {
		for _, schemeName := range testSchemes(t) {
			t.Run(name+"/"+schemeName, func(t *testing.T) {
				cfg := smallConfigs()[name]
				g, _ := workload.Get(name)
				orig := g(cfg)
				c, err := Compile(orig, mesh.Cores())
				if err != nil {
					t.Fatal(err)
				}
				ecfg := core.DefaultConfig()
				ecfg.Mesh = mesh
				ecfg.GuestContexts = 0
				ecfg.ChargeMemory = false
				engO, err := core.NewEngine(ecfg, placement.NewFirstTouch(PageBytes), parseScheme(t, schemeName))
				if err != nil {
					t.Fatal(err)
				}
				resO, err := engO.Run(orig, nil)
				if err != nil {
					t.Fatal(err)
				}
				resC, err := c.Predict(mesh, parseScheme(t, schemeName), placement.NewPageStriped(PageBytes, mesh.Cores()), 0)
				if err != nil {
					t.Fatal(err)
				}
				if resO.Migrations != resC.Migrations || resO.RemoteAccesses != resC.RemoteAccesses ||
					resO.Local != resC.Local || resO.Evictions != resC.Evictions {
					t.Errorf("model drifted under compaction:\n original  mig=%d ra=%d local=%d evict=%d\n compacted mig=%d ra=%d local=%d evict=%d",
						resO.Migrations, resO.RemoteAccesses, resO.Local, resO.Evictions,
						resC.Migrations, resC.RemoteAccesses, resC.Local, resC.Evictions)
				}
			})
		}
	}
}

// TestRuntimeMatchesModel is the workload-scale extension of M3: the
// compiled SPLASH-2 stand-ins execute on the real machine (channel
// transport) and the runtime's migration / remote / local / context-flit
// counters must equal the trace model's predictions exactly, under every
// scheme, with the documented local-op and flit offsets.
func TestRuntimeMatchesModel(t *testing.T) {
	t.Parallel()
	mesh := testMesh()
	for _, name := range []string{"ocean", "fft", "barnes"} {
		for _, schemeName := range testSchemes(t) {
			name, schemeName := name, schemeName
			t.Run(name+"/"+schemeName, func(t *testing.T) {
				t.Parallel()
				c := compileSmall(t, name)
				scheme := parseScheme(t, schemeName)
				model, err := c.Predict(mesh, scheme, placement.NewPageStriped(PageBytes, mesh.Cores()), 0)
				if err != nil {
					t.Fatal(err)
				}
				res := runChannel(t, c, scheme, placement.NewPageStriped(PageBytes, mesh.Cores()), 0)
				if diff := ModelCounts(model, scheme).Diff(RuntimeCounts(res)); len(diff) != 0 {
					t.Errorf("runtime diverged from model: %v", diff)
				}
			})
		}
	}
}

// TestRuntimeFirstTouchBinding checks the first-touch path: preloading each
// compacted page's marker word with the preserved home binds the machine's
// first-touch page table exactly as the trace bound it, so the runtime
// matches the model under first-touch placement too.
func TestRuntimeFirstTouchBinding(t *testing.T) {
	t.Parallel()
	mesh := testMesh()
	c := compileSmall(t, "ocean")
	scheme := parseScheme(t, "history:2")
	model, err := c.Predict(mesh, scheme, placement.NewFirstTouch(PageBytes), 0)
	if err != nil {
		t.Fatal(err)
	}
	res := runChannel(t, c, scheme, placement.NewFirstTouch(PageBytes), 0)
	if diff := ModelCounts(model, scheme).Diff(RuntimeCounts(res)); len(diff) != 0 {
		t.Errorf("first-touch runtime diverged from model: %v", diff)
	}
}

// TestDifferentialChannelVsTCP is the acceptance battery: three compiled
// workloads run on both transports and must produce bit-identical final
// memory images, final register files, and per-core runtime metrics —
// with the runtime counts also equal to the model prediction on both.
func TestDifferentialChannelVsTCP(t *testing.T) {
	t.Parallel()
	mesh := testMesh()
	schemes := []string{"always-migrate", "history:2"}
	if testing.Short() {
		schemes = []string{"history:2"}
	}
	for _, name := range []string{"ocean", "fft", "barnes"} {
		for _, schemeName := range schemes {
			name, schemeName := name, schemeName
			t.Run(name+"/"+schemeName, func(t *testing.T) {
				t.Parallel()
				c := compileSmall(t, name)
				if !c.Deterministic {
					t.Fatalf("%s must be single-writer for the bit-identical comparison", name)
				}
				scheme := parseScheme(t, schemeName)
				place := placement.NewPageStriped(PageBytes, mesh.Cores())
				model, err := c.Predict(mesh, scheme, place, 0)
				if err != nil {
					t.Fatal(err)
				}
				ch := runChannel(t, c, scheme, place, 0)
				tcp := runTCP(t, c, schemeName, fmt.Sprintf("page-striped:%d", PageBytes), 0)

				if !reflect.DeepEqual(ch.Mem, tcp.Mem) {
					t.Fatalf("final memory images differ:\n channel %v\n tcp     %v", ch.Mem, tcp.Mem)
				}
				if !reflect.DeepEqual(ch.FinalRegs, tcp.FinalRegs) {
					t.Fatalf("final registers differ:\n channel %v\n tcp     %v", ch.FinalRegs, tcp.FinalRegs)
				}
				if !reflect.DeepEqual(ch.PerCore, tcp.PerCore) {
					t.Fatalf("per-core metrics differ:\n channel %+v\n tcp     %+v", ch.PerCore, tcp.PerCore)
				}
				want := ModelCounts(model, scheme)
				if diff := want.Diff(RuntimeCounts(ch)); len(diff) != 0 {
					t.Errorf("channel diverged from model: %v", diff)
				}
				if diff := want.Diff(RuntimeCounts(tcp)); len(diff) != 0 {
					t.Errorf("tcp diverged from model: %v", diff)
				}
			})
		}
	}
}

// TestCompiledProgramsSurviveWire: every compiled instruction must
// round-trip the 32-bit ISA encoding (the property ClusterRun.Run enforces
// before shipping programs to nodes).
func TestCompiledProgramsSurviveWire(t *testing.T) {
	t.Parallel()
	for _, name := range workload.Names() {
		c := compileSmall(t, name)
		for ti, spec := range c.Threads {
			for i, in := range spec.Program {
				w := in.Encode()
				back, err := isa.Decode(w)
				if err != nil || back != in {
					t.Fatalf("%s thread %d instr %d (%v) does not survive the wire", name, ti, i, in)
				}
			}
		}
	}
}

// TestCompileValidation pins the compiler's error paths.
func TestCompileValidation(t *testing.T) {
	t.Parallel()
	if _, err := CompileWorkload("nope", workload.Config{}, 4); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := CompileWorkload("ocean", workload.Config{Threads: 4, Scale: 4, Iters: 0}, 4); err == nil {
		t.Error("explicit zero iters accepted")
	}
	if _, err := CompileWorkload("ocean", workload.Config{Threads: 4, Scale: 8, Iters: 1}, 0); err == nil {
		t.Error("zero cores accepted")
	}
}
