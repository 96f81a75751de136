package wprog

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/machine"
	"repro/internal/placement"
	"repro/internal/transport"
	"repro/internal/workload"
)

// scaleMesh is the paper's machine: an 8x8 mesh of 64 cores, served by
// 8 node processes of 8 cores each.
func scaleMesh() geom.Mesh { return geom.NewMesh(8, 8) }

const scaleNodes = 8

// compileScaleOcean compiles ocean at paper scale: 64 threads, one per
// core, one interior grid row each (Scale must be >= Threads so the row
// partition gives every thread work).
func compileScaleOcean(t *testing.T) *Compiled {
	t.Helper()
	cfg := workload.Config{Threads: 64, Scale: 64, Iters: 1, Seed: 1}
	c, err := CompileWorkload("ocean", cfg, scaleMesh().Cores())
	if err != nil {
		t.Fatal(err)
	}
	if !c.Deterministic {
		t.Fatal("ocean at 64 threads must stay single-writer for the bit-identical comparison")
	}
	return c
}

// runScaleChannel executes the compiled workload on a single-process
// 64-core channel machine — the reference the cluster must match.
func runScaleChannel(t *testing.T, c *Compiled) *machine.Result {
	t.Helper()
	mesh := scaleMesh()
	scheme, err := machine.ParseScheme("history:2", mesh)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(machine.Config{
		Mesh:      mesh,
		Placement: placement.NewPageStriped(PageBytes, mesh.Cores()),
		Scheme:    scheme,
		Quantum:   16,
		LogEvents: true,
	}, len(c.Threads))
	if err != nil {
		t.Fatal(err)
	}
	for _, pg := range c.Pages {
		m.Preload(pg.Base, c.Mem[pg.Base], pg.Home)
	}
	res, err := m.Run(c.Threads)
	if err != nil {
		t.Fatal(err)
	}
	if err := machine.CheckSCFrom(c.Mem, res.Events); err != nil {
		t.Fatalf("channel: SC violation: %v", err)
	}
	return res
}

// runScaleCluster executes the compiled workload on an 8-node cluster over
// TCP loopback; start spawns each node (in-process goroutine or real
// process, supplied by the caller).
func runScaleCluster(t *testing.T, c *Compiled, start func(t *testing.T, man transport.Manifest) func() error) *machine.Result {
	t.Helper()
	mesh := scaleMesh()
	man, err := transport.LocalManifest(scaleNodes, mesh.Width(), mesh.Height())
	if err != nil {
		t.Fatal(err)
	}
	wait := start(t, man)
	res, err := machine.ClusterRun{
		Manifest: man,
		Config: machine.ClusterConfig{
			Quantum:   16,
			Scheme:    "history:2",
			Placement: fmt.Sprintf("page-striped:%d", PageBytes),
			LogEvents: true,
			Timeout:   180 * time.Second,
		},
		Threads: c.Threads,
		Mem:     c.Mem,
	}.Run()
	if wait != nil {
		if nerr := wait(); err == nil {
			err = nerr
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := machine.CheckSCFrom(c.Mem, res.Events); err != nil {
		t.Fatalf("cluster: SC violation: %v", err)
	}
	return res
}

// inProcessNodes runs every manifest node as a machine.ServeNode goroutine
// (the em2node code path without process spawn — CI-short friendly).
func inProcessNodes(_ *testing.T, man transport.Manifest) func() error {
	return machine.HostNodes(man)
}

// assertScaleIdentical is the acceptance comparison: final memory, final
// registers and per-core metrics must be bit-identical between the
// single-process channel run and the 8-node cluster run.
func assertScaleIdentical(t *testing.T, ch, tcp *machine.Result) {
	t.Helper()
	if !reflect.DeepEqual(ch.Mem, tcp.Mem) {
		t.Fatal("final memory images differ between channel and 8-node cluster")
	}
	if !reflect.DeepEqual(ch.FinalRegs, tcp.FinalRegs) {
		t.Fatal("final registers differ between channel and 8-node cluster")
	}
	if !reflect.DeepEqual(ch.PerCore, tcp.PerCore) {
		t.Fatal("per-core metrics differ between channel and 8-node cluster")
	}
}

// TestScaleOcean64Core8Node is the tentpole acceptance test: ocean at 64
// threads on 64 cores across 8 node processes (in-process endpoints, so it
// runs under -short in CI) must be bit-identical to the single-process
// channel run — and the coordinator's injection cost must be O(nodes)
// batch writes, not O(threads) round trips.
func TestScaleOcean64Core8Node(t *testing.T) {
	t.Parallel()
	c := compileScaleOcean(t)
	ch := runScaleChannel(t, c)
	tcp := runScaleCluster(t, c, inProcessNodes)
	assertScaleIdentical(t, ch, tcp)

	// The NetStats pin. The coordinator's whole conversation with each node
	// is a handful of control writes: the load blob, one flush carrying all
	// of that node's initial contexts, the job/collect requests and the
	// shutdown. If injection ever regresses to one ack'd round trip per
	// context, BatchesSent jumps to at least one write per thread (64 > 48).
	maxBatches := int64(6 * scaleNodes)
	if got := tcp.CoordNet.BatchesSent; got > maxBatches {
		t.Errorf("coordinator sent %d batches for %d threads on %d nodes, want <= %d (O(nodes) injection)",
			got, len(c.Threads), scaleNodes, maxBatches)
	}
	// And the batching is real fan-in, not absence of traffic: all 64
	// initial contexts crossed the coordinator's wire as messages.
	if got := tcp.CoordNet.MsgsSent; got < int64(len(c.Threads)) {
		t.Errorf("coordinator sent only %d messages, want >= %d initial contexts", got, len(c.Threads))
	}
}

// TestScaleSmokeEm2nodeBinaries is the CI scale smoke: the same 64-core
// ocean run, but each of the 8 nodes is a real cmd/em2node process — the
// shipped artifact, not just its code path. Skipped in -short (it invokes
// the go toolchain to build the binary).
func TestScaleSmokeEm2nodeBinaries(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("building cmd/em2node needs the go toolchain; skipped in -short")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "em2node")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/em2node")
	build.Dir = repoRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build cmd/em2node: %v\n%s", err, out)
	}

	c := compileScaleOcean(t)
	ch := runScaleChannel(t, c)
	tcp := runScaleCluster(t, c, func(t *testing.T, man transport.Manifest) func() error {
		path := filepath.Join(t.TempDir(), "manifest.json")
		if err := man.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		for i := range man.Nodes {
			cmd := exec.Command(bin, "-manifest", path, "-node", strconv.Itoa(i))
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func(cmd *exec.Cmd) func() {
				return func() { cmd.Process.Kill(); cmd.Wait() }
			}(cmd))
		}
		return nil
	})
	assertScaleIdentical(t, ch, tcp)
}

// repoRoot walks up from the package directory to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}
