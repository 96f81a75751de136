// Runtime demonstrates the concurrent EM² runtime on both transports: the
// same program (in the repository's mini-ISA) first executes on goroutine
// cores with contexts migrating over Go channels, then on a two-node TCP
// loopback cluster with contexts genuinely serialized over sockets — and
// both executions are verified sequentially consistent on their recorded
// events. (The nodes run in-process here for a self-contained example; see
// cmd/em2node and `em2sim -cluster` for separate OS processes.)
package main

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/isa"
	"repro/internal/machine"
)

func main() {
	// Eight threads atomically increment three counters homed at three
	// different cores; under EM² each FAA executes at the counter's home.
	prog := isa.MustAssemble(`
		addi r2, r0, 100   ; iterations
		addi r3, r0, 1     ; increment
	loop:
		faa  r4, 0(r0), r3    ; counter A, homed at core 0
		faa  r4, 256(r0), r3  ; counter B, homed at core 4
		faa  r4, 512(r0), r3  ; counter C, homed at core 8
		addi r2, r2, -1
		bne  r2, r0, loop
		halt
	`)
	fmt.Println("program:")
	fmt.Print(isa.Disassemble(prog))

	threads := make([]machine.ThreadSpec, 8)
	for i := range threads {
		threads[i] = machine.ThreadSpec{Program: prog}
	}

	// The same machine on two wires. In one process, cores are goroutines
	// and Go channels are the networks; on a two-node TCP loopback cluster
	// of eight cores each, every cross-node migration ships the context's
	// wire encoding. LogEvents has the runner SC-check every run.
	cfg := machine.ClusterConfig{GuestContexts: 2, Placement: "striped:64", LogEvents: true}
	lit := machine.Litmus{Name: "counters", Threads: threads}
	var retired []int64
	for _, nodes := range []int{0, 2} {
		r, err := machine.NewRunner(geom.SquareMesh(16), nodes, cfg)
		if err != nil {
			panic(err)
		}
		res, err := r.Run(lit)
		if err != nil {
			panic(err)
		}
		where := "in-process"
		if nodes > 0 {
			where = "TCP cluster"
		}
		fmt.Printf("\n%s: instructions=%d migrations=%d evictions=%d local-ops=%d\n",
			where, res.Instructions, res.Migrations, res.Evictions, res.LocalOps)
		for i, c := range res.NodeCounters {
			fmt.Printf("  node %d: instructions=%d migrations=%d\n", i, c["instructions"], c["migrations"])
		}
		for _, addr := range []uint32{0, 256, 512} {
			fmt.Printf("  counter @%-4d = %d (want %d)\n", addr, res.Mem[addr], 8*100)
		}
		fmt.Printf("  sequential consistency: OK (%d events checked)\n", len(res.Events))
		retired = append(retired, res.Instructions)
	}

	if retired[0] != retired[1] {
		panic(fmt.Sprintf("transports disagree on retired instructions: %d vs %d", retired[0], retired[1]))
	}
	fmt.Println("\nboth transports retired the same instruction count — same machine, different wire")
}
