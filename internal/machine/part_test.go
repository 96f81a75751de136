package machine

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/geom"
	"repro/internal/isa"
	"repro/internal/placement"
	"repro/internal/transport"
)

// TestPeekDoesNotBindPlacement pins the read-only contract of Part.Peek:
// inspecting an address no thread has touched must not bind its page under
// a dynamic placement. The old implementation resolved the home via
// place.touch(addr, 0), which first-touch-bound the page to core 0 — so a
// later Preload by core 2 would land the data at the wrong home.
func TestPeekDoesNotBindPlacement(t *testing.T) {
	t.Parallel()
	ft := placement.NewFirstTouch(64)
	cfg := testConfig()
	cfg.Placement = ft
	tr := transport.NewLocal(cfg.Mesh.Cores(), 1)
	p, err := NewPart(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}

	const addr = 0x200
	if v, ok := p.Peek(addr); ok || v != 0 {
		t.Fatalf("Peek of untouched addr = (%d, %v), want (0, false)", v, ok)
	}
	if home, ok := ft.HomeOf(cache.Addr(addr)); ok {
		t.Fatalf("Peek bound untouched page to core %d", home)
	}

	// First touch after the peek must still win: Preload by core 2 homes the
	// page at core 2, and Peek now sees the stored word there.
	p.Preload(addr, 99, geom.CoreID(2))
	if home, ok := ft.HomeOf(cache.Addr(addr)); !ok || home != 2 {
		t.Fatalf("home after Preload by core 2 = (%d, %v), want (2, true)", home, ok)
	}
	if v, ok := p.Peek(addr); !ok || v != 99 {
		t.Fatalf("Peek after Preload = (%d, %v), want (99, true)", v, ok)
	}
}

// TestBadThreadSpecsRejected: an empty program is an error on every path
// that installs a thread — it once reached a core goroutine and panicked
// it with "pc 0 outside program of 0 instructions" — and a bad initial
// register names the slot it was meant for, not the position in a
// one-element validation list.
func TestBadThreadSpecsRejected(t *testing.T) {
	t.Parallel()
	halt := isa.MustAssemble("halt")
	m, err := New(testConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run([]ThreadSpec{{Program: halt}, {Program: nil}}); err == nil || !strings.Contains(err.Error(), "slot 1: empty program") {
		t.Fatalf("Run with an empty program: err = %v, want slot 1's empty program", err)
	}

	part, err := NewPart(testConfig(), transport.NewLocal(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := part.StartServe(4, func(transport.HaltMsg) {}); err != nil {
		t.Fatal(err)
	}
	defer part.Stop()
	if err := part.SetThread(2, &ThreadSpec{Program: halt, Regs: map[int]uint32{0: 1}}); err == nil || !strings.Contains(err.Error(), "slot 2: bad initial register r0") {
		t.Fatalf("SetThread(2) with r0 set: err = %v, want it to name slot 2", err)
	}
	if err := part.SetThread(3, &ThreadSpec{}); err == nil || !strings.Contains(err.Error(), "slot 3: empty program") {
		t.Fatalf("SetThread(3) with no program: err = %v, want slot 3's empty program", err)
	}
}
