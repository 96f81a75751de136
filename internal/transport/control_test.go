package transport_test

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/transport"
)

// stubJobs is a node's job handler that accepts every job and reclaims
// the one region the control-plane test retires.
type stubJobs struct{ reclaimed []transport.Event }

func (stubJobs) ApplyJob(*transport.JobSpec) error { return nil }

func (s stubJobs) RetireJob(d transport.JobDone) transport.JobRetired {
	ret := transport.JobRetired{Job: d.Job}
	if d.Reclaim {
		if d.Base != 4096 || d.Size != 4096 {
			ret.Err = fmt.Sprintf("unexpected region [%d,+%d)", d.Base, d.Size)
			return ret
		}
		ret.Events, ret.Words = s.reclaimed, len(s.reclaimed)
	}
	return ret
}

// TestControlPlaneRoundTrip exercises the sharded control plane end to
// end on one real Node/Coordinator pair: the load-ack barrier, the async
// heartbeat, the job-retirement barrier with reclaimed events, and the
// chunked incremental collect — each of the v2 control frames that keep
// the coordinator off the critical path.
func TestControlPlaneRoundTrip(t *testing.T) {
	man, err := transport.LocalManifest(1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	retEvents := []transport.Event{
		{Thread: 0, TSeq: 1, Addr: 4096, Kind: transport.EvWrite, Wrote: 7, Seq: 1, Home: 0},
		{Thread: 1, TSeq: 1, Addr: 4100, Kind: transport.EvRead, Read: 7, Seq: 2, Home: 1},
	}
	chunks := []transport.CollectChunk{
		{Node: 0, PerCore: &transport.CoreMetrics{Core: 0, Instructions: 5}, Mem: map[uint32]uint32{8192: 1}},
		{Node: 0, PerCore: &transport.CoreMetrics{Core: 1, Instructions: 6},
			Events: []transport.Event{{Thread: 2, Addr: 8192, Seq: 3, Home: 1}},
			Mem:    map[uint32]uint32{8196: 2}},
		{Node: 0, Done: true, Counters: map[string]int64{"instructions": 11},
			Net: &transport.NetStats{MsgsSent: 99}},
	}

	errs := make(chan error, 1)
	go func() {
		errs <- func() error {
			n, err := transport.ListenNode(man, 0)
			if err != nil {
				return err
			}
			defer n.Close()
			spec := <-n.Loads()
			n.Prepare(spec.NumThreads)
			n.HandleMem(func(geom.CoreID, transport.MemRequest) transport.MemReply { return transport.MemReply{} })
			n.HandleJobs(stubJobs{reclaimed: retEvents})
			n.Ready()
			if err := n.SendLoadAck(transport.JobAck{Node: 0}); err != nil {
				return err
			}
			n.StartHeartbeat(5 * time.Millisecond)
			<-n.CollectRequests()
			for _, ch := range chunks {
				if err := n.SendCollectChunk(ch); err != nil {
					return err
				}
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
	if err := co.Load(&transport.LoadSpec{NumThreads: 4}, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// The retirement barrier returns the reclaimed events.
	got, err := co.RetireJob(transport.JobDone{Job: 3, Slots: []int{0, 1}, Base: 4096, Size: 4096, Reclaim: true}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, retEvents) {
		t.Fatalf("retired events = %+v, want %+v", got, retEvents)
	}

	// Heartbeats flow with no request: the coordinator only has to look.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if hbs := co.Heartbeats(); len(hbs) == 1 && hbs[0].Node == 0 && hbs[0].Seq >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no heartbeat observed; have %+v", co.Heartbeats())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Chunked collect reassembles into one CollectReply per node.
	reps, err := co.Collect(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 {
		t.Fatalf("collect returned %d replies", len(reps))
	}
	rep := reps[0]
	if rep.Node != 0 || len(rep.PerCore) != 2 || rep.PerCore[0].Instructions != 5 || rep.PerCore[1].Instructions != 6 {
		t.Fatalf("assembled per-core = %+v", rep.PerCore)
	}
	if len(rep.Events) != 1 || rep.Events[0].Thread != 2 {
		t.Fatalf("assembled events = %+v", rep.Events)
	}
	if !reflect.DeepEqual(rep.Mem, map[uint32]uint32{8192: 1, 8196: 2}) {
		t.Fatalf("assembled mem = %+v", rep.Mem)
	}
	if rep.Counters["instructions"] != 11 || rep.Net == nil || rep.Net.MsgsSent != 99 {
		t.Fatalf("assembled aggregates: counters=%+v net=%+v", rep.Counters, rep.Net)
	}

	co.Close()
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// TestLoadAckSurfacesNodeError pins the silent-load-failure fix at the
// transport layer: a node that rejects its LoadSpec reports the actual
// message through the ack barrier, not a bare connection death.
func TestLoadAckSurfacesNodeError(t *testing.T) {
	man, err := transport.LocalManifest(1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		n, err := transport.ListenNode(man, 0)
		if err != nil {
			return
		}
		<-n.Loads()
		n.SendLoadAck(transport.JobAck{Node: 0, Err: "unknown scheme \"bogus\""})
		n.Close() // exit like a failed node process would
	}()

	co, err := transport.DialCluster(man, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	err = co.Load(&transport.LoadSpec{NumThreads: 1}, 10*time.Second)
	if err == nil {
		t.Fatal("Load succeeded despite a node load failure")
	}
	if !strings.Contains(err.Error(), "unknown scheme") {
		t.Fatalf("load failure surfaced as %q, want the node's actual error", err)
	}
}

// barrierCase is one coordinator barrier as the nodes see it: the request
// kind, node's answer to the round-th such request, and the call that runs
// round r and checks that every reply it returns is round r's.
type barrierCase struct {
	name   string
	req    transport.FrameKind
	answer func(node, round int) []transport.Frame
	run    func(co *transport.Coordinator, round int, timeout time.Duration) error
}

func blobFrame(kind transport.FrameKind, v any) transport.Frame {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return transport.Frame{Kind: kind, Blob: b}
}

var barrierCases = []barrierCase{
	{"load", transport.FrameLoad,
		func(node, round int) []transport.Frame {
			return []transport.Frame{blobFrame(transport.FrameLoadAck, transport.JobAck{Node: node})}
		},
		func(co *transport.Coordinator, round int, timeout time.Duration) error {
			return co.Load(&transport.LoadSpec{NumThreads: 1}, timeout)
		}},
	{"submit", transport.FrameJobSubmit,
		func(node, round int) []transport.Frame {
			return []transport.Frame{blobFrame(transport.FrameJobAck, transport.JobAck{Job: round, Node: node})}
		},
		func(co *transport.Coordinator, round int, timeout time.Duration) error {
			return co.SubmitJob(&transport.JobSpec{Job: round}, timeout)
		}},
	{"retire", transport.FrameJobDone,
		func(node, round int) []transport.Frame {
			return []transport.Frame{blobFrame(transport.FrameJobRetired,
				transport.JobRetired{Job: round, Node: node, Events: []transport.Event{{Thread: round, Home: geom.CoreID(node)}}})}
		},
		func(co *transport.Coordinator, round int, timeout time.Duration) error {
			events, err := co.RetireJob(transport.JobDone{Job: round}, timeout)
			for i, ev := range events {
				if len(events) != 2 || ev.Thread != round || ev.Home != geom.CoreID(i) {
					return fmt.Errorf("retired events %+v are not one per node from round %d", events, round)
				}
			}
			return err
		}},
	{"sample", transport.FrameSampleReq,
		func(node, round int) []transport.Frame {
			return []transport.Frame{blobFrame(transport.FrameSampleRep,
				transport.NodeSample{Node: node, Sample: transport.Sample{Words: int64(100 * round)}})}
		},
		func(co *transport.Coordinator, round int, timeout time.Duration) error {
			s, err := co.SampleCluster(timeout)
			if err == nil && s.Words != int64(200*round) {
				return fmt.Errorf("merged sample has %d words, want round %d's %d", s.Words, round, 200*round)
			}
			return err
		}},
	{"collect", transport.FrameCollect,
		func(node, round int) []transport.Frame {
			return []transport.Frame{
				blobFrame(transport.FrameCollectChunk, transport.CollectChunk{Node: node, PerCore: &transport.CoreMetrics{Core: geom.CoreID(node)}}),
				blobFrame(transport.FrameCollectChunk, transport.CollectChunk{Node: node, Done: true, Counters: map[string]int64{"round": int64(round)}}),
			}
		},
		func(co *transport.Coordinator, round int, timeout time.Duration) error {
			reps, err := co.Collect(timeout)
			for i, rep := range reps {
				if rep.Node != i || len(rep.PerCore) != 1 || rep.Counters["round"] != int64(round) {
					return fmt.Errorf("collect reply %+v is not node %d's from round %d", rep, i, round)
				}
			}
			return err
		}},
}

// fakeCluster brings up a coordinator over two stand-in nodes speaking the
// raw wire protocol, so a test decides exactly when, how often and whether
// each node answers. serve[i] gets node i's 1-based round for every
// request of kind req and returns the frames to answer with (sent as one
// batch), or ok=false to close the connection — the node dies.
func fakeCluster(t *testing.T, req transport.FrameKind, serve [2]func(round int) (reply []transport.Frame, ok bool)) *transport.Coordinator {
	t.Helper()
	man, err := transport.LocalManifest(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, ns := range man.Nodes {
		ln, err := net.Listen("tcp", ns.Addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			round := 0
			for {
				hdr := make([]byte, transport.BatchHeaderLen)
				if _, err := io.ReadFull(c, hdr); err != nil {
					return
				}
				batch := append(hdr, make([]byte, binary.BigEndian.Uint32(hdr))...)
				if _, err := io.ReadFull(c, batch[len(hdr):]); err != nil {
					return
				}
				reqs := 0
				if transport.DecodeBatch(batch, func(f transport.Frame) error {
					if f.Kind == req {
						reqs++
					}
					return nil
				}) != nil {
					return
				}
				for ; reqs > 0; reqs-- {
					round++
					reply, ok := serve[i](round)
					if !ok {
						return
					}
					if _, err := c.Write(transport.AppendBatch(nil, reply)); err != nil {
						return
					}
				}
			}
		}()
	}
	co, err := transport.DialCluster(man, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	return co
}

// TestBarriersFailLoudly pins the rules every coordinator barrier shares:
// a node death fails the barrier at once, a reply that arrives after its
// barrier timed out never satisfies the next one, and a second reply from
// one node is an error — never a silently counted reply.
func TestBarriersFailLoudly(t *testing.T) {
	for _, bc := range barrierCases {
		prompt := func(node int) func(int) ([]transport.Frame, bool) {
			return func(round int) ([]transport.Frame, bool) { return bc.answer(node, round), true }
		}
		// hold parks a node until the subtest ends; it never answers.
		hold := func(t *testing.T) func(int) ([]transport.Frame, bool) {
			done := make(chan struct{})
			t.Cleanup(sync.OnceFunc(func() { close(done) }))
			return func(int) ([]transport.Frame, bool) { <-done; return nil, false }
		}

		t.Run(bc.name+"/node-death", func(t *testing.T) {
			t.Parallel()
			co := fakeCluster(t, bc.req, [2]func(int) ([]transport.Frame, bool){prompt(0),
				func(int) ([]transport.Frame, bool) { return nil, false }})
			start := time.Now()
			err := bc.run(co, 1, 10*time.Second)
			if err == nil || !strings.Contains(err.Error(), "node 1 lost") {
				t.Fatalf("barrier with a dying node returned %v, want node 1's death", err)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Fatalf("death surfaced after %v, want well inside the 10s timeout", d)
			}
		})

		t.Run(bc.name+"/stale-reply", func(t *testing.T) {
			t.Parallel()
			release := make(chan struct{})
			unblock := sync.OnceFunc(func() { close(release) })
			t.Cleanup(unblock)
			co := fakeCluster(t, bc.req, [2]func(int) ([]transport.Frame, bool){prompt(0),
				func(round int) ([]transport.Frame, bool) {
					if round == 1 {
						<-release // answer round 1 only after it timed out
					}
					return bc.answer(1, round), true
				}})
			if err := bc.run(co, 1, 50*time.Millisecond); err == nil || !strings.Contains(err.Error(), "timeout") {
				t.Fatalf("round 1 against a stalled node returned %v, want a timeout", err)
			}
			unblock()
			if err := bc.run(co, 2, 10*time.Second); err != nil {
				t.Fatalf("round 2 after a timed-out round 1: %v", err)
			}
		})

		t.Run(bc.name+"/duplicate-reply", func(t *testing.T) {
			t.Parallel()
			co := fakeCluster(t, bc.req, [2]func(int) ([]transport.Frame, bool){
				func(round int) ([]transport.Frame, bool) {
					return append(bc.answer(0, round), bc.answer(0, round)...), true
				},
				hold(t)})
			start := time.Now()
			err := bc.run(co, 1, 10*time.Second)
			if err == nil || strings.Contains(err.Error(), "timeout") {
				t.Fatalf("barrier with a node replying twice returned %v, want a protocol error", err)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Fatalf("duplicate surfaced after %v, want well inside the 10s timeout", d)
			}
		})
	}
}
