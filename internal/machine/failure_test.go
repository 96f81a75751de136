package machine

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/isa"
	"repro/internal/transport"
)

// spinForever reads an address that is never written and loops until it
// becomes non-zero — a thread that can only end when the run is torn down.
func spinForever() []isa.Instr {
	return isa.MustAssemble(`
	spin:
		lw   r1, 128(r0)
		beq  r1, r0, spin
		halt
	`)
}

// TestNodeDeathFailsLoudly kills one node process mid-run and requires
// ClusterRun.Run to fail promptly via the death channel, not bleed out into
// its timeout: the old halt loop only selected on halts and the timer, so
// a dead node meant a full-timeout silent hang.
func TestNodeDeathFailsLoudly(t *testing.T) {
	t.Parallel()
	man, err := transport.LocalManifest(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := man.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	cmds := make([]*exec.Cmd, len(man.Nodes))
	for i := range man.Nodes {
		cmds[i] = reexecNode(path, i)
		if err := cmds[i].Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func(c *exec.Cmd) func() {
			return func() { c.Process.Kill(); c.Wait() }
		}(cmds[i]))
	}

	runErr := make(chan error, 1)
	go func() {
		_, err := ClusterRun{Manifest: man, Config: ClusterConfig{Timeout: 60 * time.Second},
			Threads: []ThreadSpec{{Program: spinForever()}}}.Run()
		runErr <- err
	}()

	// Let the run dial, load and start spinning, then kill the far node.
	//em2:wallclock-ok: failure-injection test waits on real process startup before killing it
	time.Sleep(1 * time.Second)
	cmds[1].Process.Kill()

	select {
	case err := <-runErr:
		if err == nil {
			t.Fatal("ClusterRun.Run succeeded with a dead node and a thread that never halts")
		}
		if !strings.Contains(err.Error(), "cluster run failed") {
			t.Fatalf("node death surfaced as %q, want a loud cluster-run failure", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("ClusterRun.Run did not notice the dead node within 15s (timeout bleed-out)")
	}
}

// TestClusterRunRejectsBogusHalts drives ClusterRun.Run against a fake node
// (a bare transport endpoint) that reports malformed HALTs. A duplicate
// report must not satisfy the halt count on behalf of a thread that never
// finished, and an out-of-range thread id must be rejected outright.
func TestClusterRunRejectsBogusHalts(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name  string
		halts []int
		want  string
	}{
		{"duplicate", []int{0, 0}, "duplicate halt report for thread 0"},
		{"unknown-thread", []int{7}, "unknown thread 7"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			man, err := transport.LocalManifest(1, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			tn, err := transport.ListenNode(man, 0)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { tn.Close() })
			go func() {
				spec := <-tn.Loads()
				tn.Prepare(spec.NumThreads)
				tn.Ready()
				// Stub node: a failed send just means the coordinator tore
				// down first, which the barrier under test then reports.
				_ = tn.SendLoadAck(transport.JobAck{Node: 0}) //em2:errsink-ok: stub node; coordinator teardown is the condition under test
				for _, th := range tc.halts {
					_ = tn.SendHalt(transport.HaltMsg{Thread: th}) //em2:errsink-ok: stub node; coordinator teardown is the condition under test
				}
				<-tn.ShutdownC()
			}()
			lit := StoreBufferingLitmus(64)
			_, err = ClusterRun{Manifest: man, Config: ClusterConfig{Timeout: 10 * time.Second}, Threads: lit.Threads, Mem: lit.Mem}.Run()
			if err == nil {
				t.Fatal("ClusterRun accepted bogus halt reports")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got error %q, want it to mention %q", err, tc.want)
			}
		})
	}
}

// TestServeNodeReportsLoadError drives a real ServeNode with a LoadSpec
// only the node can reject and requires the coordinator to receive the
// node's actual error message through the ack barrier — before this fix
// the node process just exited and the coordinator saw a bare connection
// death.
func TestServeNodeReportsLoadError(t *testing.T) {
	t.Parallel()
	man, err := transport.LocalManifest(1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ServeNode(man, 0) }()

	co, err := transport.DialCluster(man, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	err = co.Load(&transport.LoadSpec{
		Scheme:     "bogus-scheme",
		Placement:  "striped:64",
		NumThreads: 1,
		Job:        &transport.JobSpec{Slots: []int{0}, Programs: [][]uint32{{0}}, Regs: []map[int]uint32{nil}},
	}, 10*time.Second)
	if err == nil {
		t.Fatal("Load succeeded despite an unloadable spec")
	}
	if !strings.Contains(err.Error(), "bogus-scheme") {
		t.Fatalf("load failure surfaced as %q, want the node's actual parse error", err)
	}
	co.Shutdown()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("ServeNode returned nil after failing to load")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeNode did not exit after its load failed")
	}
}

// failingFlushTransport wraps a working transport with a wire that can be
// declared dead: Flush fails, exactly what a node sees when a peer
// connection drops with contexts in the batch buffer.
type failingFlushTransport struct {
	transport.Transport
	dead bool
}

func (f *failingFlushTransport) Flush() error {
	if f.dead {
		return fmt.Errorf("injected wire failure")
	}
	return f.Transport.Flush()
}

// TestDeadTransportParksPart pins the dead-transport fix: once a core's
// flush records the sticky failure, the whole part must park (no work it
// produces can ever leave the machine) instead of spinning until external
// teardown.
func TestDeadTransportParksPart(t *testing.T) {
	t.Parallel()
	tr := &failingFlushTransport{Transport: transport.NewLocal(4, 1), dead: true}
	pl, err := ParsePlacement("striped:64", 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mesh: geom.NewMesh(2, 2), Placement: pl}
	part, err := NewPart(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := part.Start([]ThreadSpec{{Program: spinForever()}}, func(transport.HaltMsg) {}); err != nil {
		t.Fatal(err)
	}
	// Inject the spinning context; its core's first flush point hits the
	// dead wire and must abort the part.
	if err := tr.SendEviction(0, transport.Context{Thread: 0, Native: 0}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-part.done:
	case <-time.After(10 * time.Second):
		t.Fatal("part kept executing for 10s on a dead transport (flush failure did not park it)")
	}
	part.Stop()
}

// TestServeNodeAbortsMidRun shuts the coordinator down while the node
// still holds a context that will never halt. ServeNode must stop its core
// loops and return instead of hanging on a busy context: the core loop
// only observed Stop while blocked, so a context that kept executing kept
// its core alive forever.
func TestServeNodeAbortsMidRun(t *testing.T) {
	t.Parallel()
	man, err := transport.LocalManifest(1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ServeNode(man, 0) }()

	co, err := transport.DialCluster(man, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	job, err := BuildJob(0, []int{0}, []ThreadSpec{{Program: spinForever()}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Load(&transport.LoadSpec{
		Scheme:     "always-migrate",
		Placement:  "striped:64",
		NumThreads: 1,
		Job:        job,
	}, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := co.InjectEviction(geom.CoreID(0), transport.Context{Thread: 0, Native: 0}); err != nil {
		t.Fatal(err)
	}
	if err := co.Flush(); err != nil {
		t.Fatal(err)
	}
	//em2:wallclock-ok: failure-injection test gives the remote context real time to start spinning
	time.Sleep(300 * time.Millisecond)
	co.Shutdown()
	co.Close()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ServeNode returned error on abort: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeNode did not return within 10s of coordinator shutdown (core loop wedged on a busy context)")
	}
}
