package machine

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
)

// hostedNodes counts the goroutines currently inside ServeNode.
func hostedNodes() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "machine.ServeNode(")
}

// TestRunnerRejectsBeforeHosting pins the stranded-node fix: a run the
// coordinator rejects fails before any node is hosted. A hosted node that
// is never dialed waits for its coordinator forever, so hosting nodes and
// then failing a run on a bad name or program left wait() blocked. Not
// parallel, so the goroutine census sees only this test's nodes.
func TestRunnerRejectsBeforeHosting(t *testing.T) {
	mesh := geom.NewMesh(2, 2)
	if _, err := NewRunner(mesh, 2, ClusterConfig{Scheme: "bogus"}); err == nil || !strings.Contains(err.Error(), "unknown scheme") {
		t.Fatalf("bogus scheme: got %v, want an unknown-scheme error", err)
	}
	r, err := NewRunner(mesh, 2, ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	before := hostedNodes()
	done := make(chan error, 1)
	go func() {
		_, err := r.Run(Litmus{Name: "empty", Threads: []ThreadSpec{{}}})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "empty program") {
			t.Fatalf("got %v, want an empty-program error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Runner.Run did not return within 5s of a rejected program (a hosted node is waiting for its coordinator)")
	}
	if after := hostedNodes(); after > before {
		t.Fatalf("%d hosted nodes still running after a rejected run (%d before)", after, before)
	}
}

// TestRunnerBothTransports runs one deterministic program through a
// channel Runner and a two-node TCP Runner built from the same names: both
// SC-check and pass the litmus check, agree bit-for-bit on the final
// image and registers, and only the TCP result carries per-node counters.
func TestRunnerBothTransports(t *testing.T) {
	t.Parallel()
	lit := MessagePassingLitmus(128)
	cfg := ClusterConfig{Quantum: 8, Scheme: "history:2", LogEvents: true}
	var res [2]*Result
	for i, nodes := range []int{0, 2} {
		r, err := NewRunner(geom.NewMesh(2, 2), nodes, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res[i], err = r.Run(lit); err != nil {
			t.Fatal(err)
		}
	}
	ch, tcp := res[0], res[1]
	if len(ch.Mem) == 0 || !reflect.DeepEqual(ch.Mem, tcp.Mem) {
		t.Fatalf("memory images differ:\n channel %v\n tcp     %v", ch.Mem, tcp.Mem)
	}
	if !reflect.DeepEqual(ch.FinalRegs, tcp.FinalRegs) {
		t.Fatalf("final registers differ:\n channel %v\n tcp     %v", ch.FinalRegs, tcp.FinalRegs)
	}
	if len(ch.NodeCounters) != 0 || len(tcp.NodeCounters) != 2 || len(tcp.NodeNet) != 2 {
		t.Fatalf("node breakdowns: channel %d counters, tcp %d counters / %d net", len(ch.NodeCounters), len(tcp.NodeCounters), len(tcp.NodeNet))
	}
}
