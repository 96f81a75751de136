package machine

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/transport"
)

// This file is the machine side of the job lifecycle: packing a job's
// threads into the JobSpec control frame on the coordinator, and
// installing a received JobSpec into a part's slot pool on a node.
// DESIGN.md §7 describes the protocol (submit → ack barrier → inject →
// halts → retire).

// BuildJob packs a job's threads into the JobSpec wire form: slot
// assignments, programs in their 32-bit ISA encoding (each instruction
// verified to survive the wire — an immediate that overflows its field
// would silently execute differently on the far side), initial registers,
// and the job's initial memory image. A closed-loop run is the job of
// slots 0..n-1 that rides its LoadSpec.
func BuildJob(job int, slots []int, threads []ThreadSpec, mem map[uint32]uint32) (*transport.JobSpec, error) {
	if len(slots) != len(threads) {
		return nil, fmt.Errorf("machine: job %d has %d slots for %d threads", job, len(slots), len(threads))
	}
	if len(threads) == 0 {
		return nil, fmt.Errorf("machine: job %d has no threads", job)
	}
	js := &transport.JobSpec{Job: job, Slots: slots, Programs: make([][]uint32, len(threads)),
		Regs: make([]map[int]uint32, len(threads)), Mem: mem}
	for t, th := range threads {
		if err := checkThread(th); err != nil {
			return nil, fmt.Errorf("machine: thread %d: %v", t, err)
		}
		js.Programs[t] = make([]uint32, len(th.Program))
		for i, in := range th.Program {
			w := in.Encode()
			if back, err := isa.Decode(w); err != nil || back != in {
				return nil, fmt.Errorf("machine: thread %d instruction %d (%v) does not survive the wire encoding", t, i, in)
			}
			js.Programs[t][i] = w
		}
		js.Regs[t] = th.Regs
	}
	return js, nil
}

// ApplyJob installs a received JobSpec into this part's thread slots and
// preloads the job's memory image (keeping only the addresses this part
// homes). It runs before any of the job's contexts can arrive: on the
// transport's control-plane reader for a submitted job, before Ready for
// a load's initial job.
func (p *Part) ApplyJob(js *transport.JobSpec) error {
	if len(js.Programs) != len(js.Slots) || len(js.Regs) != len(js.Slots) {
		return fmt.Errorf("machine: job %d carries %d programs and %d reg maps for %d slots",
			js.Job, len(js.Programs), len(js.Regs), len(js.Slots))
	}
	// One allocation holds the job's thread specs and one its decoded
	// code: every closed-loop load and every served job comes through here.
	specs := make([]ThreadSpec, len(js.Slots))
	size := 0
	for _, words := range js.Programs {
		size += len(words)
	}
	code := make([]isa.Instr, 0, size)
	for i, words := range js.Programs {
		start := len(code)
		for k, w := range words {
			in, err := isa.Decode(w)
			if err != nil {
				return fmt.Errorf("machine: job %d slot %d instruction %d: %v", js.Job, js.Slots[i], k, err)
			}
			code = append(code, in)
		}
		specs[i] = ThreadSpec{Program: code[start:len(code):len(code)], Regs: js.Regs[i]}
		if err := p.SetThread(js.Slots[i], &specs[i]); err != nil {
			return err
		}
	}
	//em2:unordered-ok: Preload writes each address into its home shard's map; the final image is order-independent
	for a, v := range js.Mem {
		p.Preload(a, v, 0)
	}
	return nil
}

// RetireJob clears a finished job's slots and, when d asks for it,
// reclaims its region from the owned shards, returning the reclaimed
// events so the job can be SC-checked and the region reused knowing this
// part released it.
func (p *Part) RetireJob(d transport.JobDone) transport.JobRetired {
	p.ClearThreads(d.Slots)
	ret := transport.JobRetired{Job: d.Job}
	if d.Reclaim {
		ret.Events, ret.Words = p.ReclaimRegion(d.Base, d.Base+d.Size)
	}
	return ret
}
