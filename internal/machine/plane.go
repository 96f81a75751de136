package machine

import (
	"time"

	"repro/internal/geom"
	"repro/internal/transport"
)

// Plane is the control plane every run drives the machine through:
// install a job (inject its contexts only after SubmitJob returns nil),
// inject and flush, gather its halts, retire it, sample the live machine,
// and Collect the post-run state, one reply per node. Deaths reports lost
// nodes. Close stops the machine; it is safe after Collect, on error
// paths, and twice. *transport.Coordinator is the TCP cluster's plane and
// NewLocalPlane opens the channel machine's, so the two transports differ
// only in how their plane is opened.
type Plane interface {
	SubmitJob(spec *transport.JobSpec, timeout time.Duration) error
	InjectEviction(dst geom.CoreID, c transport.Context) error
	Flush() error
	Halts() <-chan transport.HaltMsg
	Deaths() <-chan error
	RetireJob(d transport.JobDone, timeout time.Duration) ([]Event, error)
	Sample() (transport.Sample, error)
	Collect(timeout time.Duration) ([]transport.CollectReply, error)
	Close()
}

// localPlane is the channel machine's Plane: one Part over one
// transport.Local, answering in process what the coordinator asks of its
// nodes over the wire. A channel never dies, so Deaths is nil.
type localPlane struct {
	tr    *transport.Local
	part  *Part
	halts chan transport.HaltMsg
}

// newLocalPlane builds an unstarted channel machine of numSlots thread
// slots; the slot count sizes the virtual-network inboxes and the halt
// channel, which is what makes eviction sends and halt reports safe.
func newLocalPlane(cfg Config, numSlots int) (localPlane, error) {
	tr := transport.NewLocal(cfg.Mesh.Cores(), numSlots)
	part, err := NewPart(cfg, tr) // NewPart validates cfg
	return localPlane{tr: tr, part: part, halts: make(chan transport.HaltMsg, numSlots)}, err
}

// NewLocalPlane starts a channel machine spanning the whole mesh in serve
// mode over numSlots empty thread slots and returns its control plane.
func NewLocalPlane(cfg Config, numSlots int) (Plane, error) {
	l, err := newLocalPlane(cfg, numSlots)
	if err == nil {
		err = l.part.StartServe(numSlots, l.halt)
	}
	if err != nil {
		return nil, err
	}
	return &l, nil
}

func (l *localPlane) halt(h transport.HaltMsg) { l.halts <- h }

func (l *localPlane) SubmitJob(spec *transport.JobSpec, _ time.Duration) error {
	return l.part.ApplyJob(spec)
}

func (l *localPlane) InjectEviction(dst geom.CoreID, c transport.Context) error {
	return l.tr.SendEviction(dst, c)
}

func (l *localPlane) Flush() error                    { return nil }
func (l *localPlane) Halts() <-chan transport.HaltMsg { return l.halts }
func (l *localPlane) Deaths() <-chan error            { return nil }

func (l *localPlane) RetireJob(d transport.JobDone, _ time.Duration) ([]Event, error) {
	return l.part.RetireJob(d).Events, nil
}

func (l *localPlane) Sample() (transport.Sample, error) { return l.part.Sample() }

func (l *localPlane) Collect(time.Duration) ([]transport.CollectReply, error) {
	l.part.Stop()
	return []transport.CollectReply{l.part.Collect(0)}, nil
}

func (l *localPlane) Close() { l.part.Stop() }
