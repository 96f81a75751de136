package sim

import (
	"strings"
	"testing"
)

// TestM3RuntimeMatchesModel is the acceptance test for the M3 experiment:
// on every deterministic micro-workload, the concurrent runtime's message
// counts — on the channel transport AND across a TCP cluster — must equal
// the §3 trace-model predictions exactly, for all four decision schemes;
// the schedule-dependent litmus rows must be SC- and litmus-clean. The
// table must also be byte-deterministic (it is part of the sweep registry).
func TestM3RuntimeMatchesModel(t *testing.T) {
	p := SmallPlatform()
	table := M3(p)
	if table.NumRows() == 0 {
		t.Fatal("M3 produced no rows")
	}
	schemes := make(map[string]bool)
	for _, row := range table.Rows() {
		verdict := row[len(row)-1]
		schemes[row[1]] = true
		if verdict != "exact" && verdict != "sc+litmus ok" {
			t.Errorf("%s/%s: %s", row[0], row[1], verdict)
		}
	}
	for _, want := range m3Schemes {
		if !schemes[want] {
			t.Errorf("scheme %s missing from M3 rows", want)
		}
	}
	if !testing.Short() {
		if again := M3(p).String(); again != table.String() {
			t.Error("M3 table is not deterministic across runs")
		}
	}
}

// TestM4RuntimeMatchesModel is the acceptance test for the M4 experiment:
// on every compiled SPLASH-2 stand-in, the runtime's migration / remote /
// local / context-flit counters on the channel transport AND across a TCP
// cluster must equal the §3 trace model's predictions exactly, for all
// four decision schemes.
func TestM4RuntimeMatchesModel(t *testing.T) {
	p := SmallPlatform()
	table := M4(p)
	if table.NumRows() == 0 {
		t.Fatal("M4 produced no rows")
	}
	schemes := make(map[string]bool)
	for _, row := range table.Rows() {
		schemes[row[1]] = true
		if verdict := row[len(row)-1]; verdict != "exact" {
			t.Errorf("%s/%s: %s", row[0], row[1], verdict)
		}
	}
	for _, want := range m3Schemes {
		if !schemes[want] {
			t.Errorf("scheme %s missing from M4 rows", want)
		}
	}
}

// TestM3TableShape pins the header contract downstream tooling reads.
func TestM3TableShape(t *testing.T) {
	cs := M3Cells(SmallPlatform())
	if cs.Name != "m3" {
		t.Errorf("cell set name %q", cs.Name)
	}
	if len(cs.Cells) != 5 {
		t.Errorf("cells = %d, want 3 micro + 2 litmus", len(cs.Cells))
	}
	joined := strings.Join(cs.Headers, "|")
	for _, want := range []string{"workload", "scheme", "migrations", "remote ops", "context flits", "check"} {
		if !strings.Contains(joined, want) {
			t.Errorf("headers %v missing %q", cs.Headers, want)
		}
	}
}
