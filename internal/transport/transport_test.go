package transport_test

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/isa"
	"repro/internal/transport"
)

func sampleContext() transport.Context {
	c := transport.Context{Thread: 3, Native: 1, MemSeq: 42}
	c.Arch.PC = 17
	for i := range c.Arch.Regs {
		c.Arch.Regs[i] = uint32(i * 0x01010101)
	}
	return c
}

func TestContextWireRoundTrip(t *testing.T) {
	withSched := sampleContext()
	withSched.Flags = transport.FlagObserved
	withSched.Sched = []byte{9, 8, 7, 6, 5}
	for _, c := range []transport.Context{
		{},
		sampleContext(),
		{Thread: -1, Native: -1, MemSeq: -7, Arch: isa.Context{PC: -1}},
		withSched,
	} {
		b := c.EncodeWire()
		if want := transport.ContextWireBytes + len(c.Sched); len(b) != want {
			t.Fatalf("encoded %d bytes, want %d", len(b), want)
		}
		back, err := transport.DecodeContext(b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, c) {
			t.Fatalf("round trip: got %+v, want %+v", back, c)
		}
	}
	if _, err := transport.DecodeContext(make([]byte, 3)); err == nil {
		t.Error("short context accepted")
	}
	// A trailer longer or shorter than the header's declared Sched length is
	// protocol corruption, not a longer context.
	if _, err := transport.DecodeContext(append(withSched.EncodeWire(), 0)); err == nil {
		t.Error("over-long sched trailer accepted")
	}
	if b := withSched.EncodeWire(); true {
		if _, err := transport.DecodeContext(b[:len(b)-1]); err == nil {
			t.Error("truncated sched trailer accepted")
		}
	}
}

func TestManifestValidate(t *testing.T) {
	ok := transport.Manifest{W: 2, H: 1, Nodes: []transport.NodeSpec{
		{Addr: "a", Cores: []geom.CoreID{0}},
		{Addr: "b", Cores: []geom.CoreID{1}},
	}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []transport.Manifest{
		{W: 0, H: 1},
		{W: 2, H: 1, Nodes: []transport.NodeSpec{{Addr: "a", Cores: []geom.CoreID{0}}}},                                          // core 1 unassigned
		{W: 2, H: 1, Nodes: []transport.NodeSpec{{Addr: "a", Cores: []geom.CoreID{0, 1}}, {Addr: "b", Cores: []geom.CoreID{1}}}}, // duplicate
		{W: 2, H: 1, Nodes: []transport.NodeSpec{{Addr: "a", Cores: []geom.CoreID{0, 5}}, {Addr: "b", Cores: []geom.CoreID{1}}}}, // out of range
		{W: 2, H: 1, Nodes: []transport.NodeSpec{{Addr: "", Cores: []geom.CoreID{0}}, {Addr: "b", Cores: []geom.CoreID{1}}}},     // no addr
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad manifest %d accepted", i)
		}
	}
}

func TestLocalManifestPartition(t *testing.T) {
	man, err := transport.LocalManifest(3, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := man.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := man.Cores(); got != 8 {
		t.Fatalf("cores = %d", got)
	}
}

// TestManifestRejectsDuplicateAddrs: two nodes on one address fail
// validation with the named error, and LocalManifest draws a distinct
// port per node (every probe listener is held until all are drawn) and
// releases them all for the nodes to bind.
func TestManifestRejectsDuplicateAddrs(t *testing.T) {
	dup := transport.Manifest{W: 2, H: 1, Nodes: []transport.NodeSpec{
		{Addr: "127.0.0.1:7000", Cores: []geom.CoreID{0}},
		{Addr: "127.0.0.1:7000", Cores: []geom.CoreID{1}},
	}}
	if err := dup.Validate(); !errors.Is(err, transport.ErrDuplicateAddr) {
		t.Fatalf("duplicate address: Validate = %v, want ErrDuplicateAddr", err)
	}
	man, err := transport.LocalManifest(16, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for i, n := range man.Nodes {
		if seen[n.Addr] {
			t.Fatalf("node %d reuses address %s", i, n.Addr)
		}
		seen[n.Addr] = true
		ln, err := net.Listen("tcp", n.Addr)
		if err != nil {
			t.Fatalf("node %d address %s still held: %v", i, n.Addr, err)
		}
		defer ln.Close()
	}
}

func TestLocalTransport(t *testing.T) {
	l := transport.NewLocal(4, 2)
	if l.Cores() != 4 || !l.Owns(3) || l.Owns(4) {
		t.Fatal("ownership wrong")
	}
	c := sampleContext()
	if err := l.SendMigration(2, c); err != nil {
		t.Fatal(err)
	}
	if got := <-l.MigrationIn(2); !reflect.DeepEqual(got, c) {
		t.Fatalf("migration round trip: %+v", got)
	}
	if err := l.SendEviction(1, c); err != nil {
		t.Fatal(err)
	}
	if got := <-l.EvictionIn(1); !reflect.DeepEqual(got, c) {
		t.Fatalf("eviction round trip: %+v", got)
	}
	l.HandleMem(func(core geom.CoreID, req transport.MemRequest) transport.MemReply {
		return transport.MemReply{Value: uint32(core) + req.Arg}
	})
	rep, err := l.Remote(3, transport.MemRequest{Arg: 39})
	if err != nil || rep.Value != 42 {
		t.Fatalf("remote = %v, %v", rep, err)
	}
}

// TestTCPNodesExchange wires two real Node endpoints plus a Coordinator
// over TCP loopback and pushes one of each message class through: load,
// remote access round trip, context migration, halt, collect, shutdown.
func TestTCPNodesExchange(t *testing.T) {
	man, err := transport.LocalManifest(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)

	// Node 0 owns core 0: serves memory, receives the migration, halts it.
	go func() {
		errs <- func() error {
			n, err := transport.ListenNode(man, 0)
			if err != nil {
				return err
			}
			defer n.Close()
			spec := <-n.Loads()
			n.Prepare(spec.NumThreads)
			n.HandleMem(func(core geom.CoreID, req transport.MemRequest) transport.MemReply {
				return transport.MemReply{Value: req.Addr + req.Arg + uint32(core)}
			})
			n.Ready()
			if err := n.SendLoadAck(transport.JobAck{Node: 0}); err != nil {
				return err
			}
			select {
			case ctx := <-n.MigrationIn(0):
				if ctx.Thread != 7 || ctx.MemSeq != 3 {
					return fmt.Errorf("node 0: migrated context %+v", ctx)
				}
				if err := n.SendHalt(transport.HaltMsg{Thread: int(ctx.Thread), Regs: ctx.Arch.Regs}); err != nil {
					return err
				}
			case <-time.After(10 * time.Second):
				return fmt.Errorf("node 0: no migration arrived")
			}
			<-n.CollectRequests()
			if err := n.SendCollectChunk(transport.CollectChunk{Node: 0, Done: true, Counters: map[string]int64{"instructions": 11}}); err != nil {
				return err
			}
			<-n.ShutdownC()
			return nil
		}()
	}()

	// Node 1 owns core 1: performs a remote access at core 0, then ships a
	// context there.
	go func() {
		errs <- func() error {
			n, err := transport.ListenNode(man, 1)
			if err != nil {
				return err
			}
			defer n.Close()
			spec := <-n.Loads()
			n.Prepare(spec.NumThreads)
			n.HandleMem(func(geom.CoreID, transport.MemRequest) transport.MemReply { return transport.MemReply{} })
			n.Ready()
			if err := n.SendLoadAck(transport.JobAck{Node: 1}); err != nil {
				return err
			}
			rep, err := n.Remote(0, transport.MemRequest{Thread: 7, Op: transport.OpRead, Addr: 40, Arg: 2})
			if err != nil {
				return err
			}
			if rep.Value != 42 {
				return fmt.Errorf("node 1: remote reply %d, want 42", rep.Value)
			}
			ctx := sampleContext()
			ctx.Thread, ctx.Native, ctx.MemSeq = 7, 0, 3
			// Migrations coalesce in the batch buffer; the machine's core
			// loop flushes at its scheduling points, so a raw transport
			// client flushes explicitly.
			if err := n.SendMigration(0, ctx); err != nil {
				return err
			}
			if err := n.Flush(); err != nil {
				return err
			}
			<-n.CollectRequests()
			if err := n.SendCollectChunk(transport.CollectChunk{Node: 1, Done: true, Counters: map[string]int64{"instructions": 31}}); err != nil {
				return err
			}
			<-n.ShutdownC()
			return nil
		}()
	}()

	co, err := transport.DialCluster(man, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if err := co.Load(&transport.LoadSpec{NumThreads: 8}, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case h := <-co.Halts():
		if h.Thread != 7 {
			t.Fatalf("halt for thread %d", h.Thread)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no halt report")
	}
	reps, err := co.Collect(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 || reps[0].Node != 0 || reps[1].Node != 1 {
		t.Fatalf("collect replies %+v", reps)
	}
	if got := reps[0].Counters["instructions"] + reps[1].Counters["instructions"]; got != 42 {
		t.Fatalf("summed counters = %d", got)
	}
	co.Shutdown()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
