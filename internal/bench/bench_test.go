package bench

import (
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestSpecRegistry pins the registry's shape: every entry's name, order,
// Gated and FullOnly flags (the -short set is the 29 entries not marked
// full-only), and both transports covered for every registry workload.
func TestSpecRegistry(t *testing.T) {
	t.Parallel()
	type entry struct {
		name            string
		gated, fullOnly bool
	}
	want := []entry{
		{"codec/context-encode", true, false},
		{"codec/context-decode", true, false},
		{"codec/context-roundtrip", true, false},
		{"codec/context-gob-roundtrip", false, false},
		{"frame/batch-encode", true, false},
		{"frame/batch-decode", true, false},
		{"telemetry/sample-encode", true, false},
		{"lease/lookup-hit", true, false},
		{"serve/channel", false, false},
		{"serve/tcp", false, false},
		{"machine/channel64/ocean", false, false},
		{"machine/tcp64/ocean", false, false},
		{"transport/burst-coalesce", false, false},
		{"machine/channel/counter", false, false},
		{"machine/tcp/counter", false, false},
		{"machine/channel/spinlock", false, false},
		{"machine/tcp/spinlock", false, false},
		{"machine/channel/rand-priv-1", false, false},
		{"machine/tcp/rand-priv-1", false, false},
		{"machine/channel/m3-pingpong", false, false},
		{"machine/tcp/m3-pingpong", false, false},
		{"machine/channel/m3-runs", false, true},
		{"machine/tcp/m3-runs", false, true},
		{"machine/channel/m3-walk", false, true},
		{"machine/tcp/m3-walk", false, true},
		{"machine/channel/ocean", false, false},
		{"machine/tcp/ocean", false, false},
		{"machine/channel/ocean-hybrid", true, false},
		{"machine/tcp/ocean-hybrid", true, false},
		{"machine/channel/fft", false, false},
		{"machine/tcp/fft", false, false},
		{"machine/channel/barnes", false, false},
		{"machine/tcp/barnes", false, false},
	}
	var got []entry
	seen := make(map[string]bool)
	for _, s := range Specs() {
		if s.Run == nil {
			t.Errorf("benchmark %q has no body", s.Name)
		}
		got = append(got, entry{s.Name, s.Gated, s.FullOnly})
		seen[s.Name] = true
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("registry:\n got  %v\n want %v", got, want)
	}
	for _, wl := range Workloads() {
		for _, tr := range []string{"machine/channel/", "machine/tcp/"} {
			if !seen[tr+wl] {
				t.Errorf("workload %q missing %s benchmark", wl, tr)
			}
		}
	}
}

// TestCompareGate pins the regression rule: gated benchmarks may not
// exceed baseline allocs/op (+tolerance); ungated and timing never fail.
func TestCompareGate(t *testing.T) {
	t.Parallel()
	base := Report{Results: []Result{
		{Name: "codec/context-encode", Gated: true, AllocsPerOp: 0, NsPerOp: 100},
		{Name: "machine/tcp/counter", Gated: false, AllocsPerOp: 500},
	}}
	cur := Report{Results: []Result{
		{Name: "codec/context-encode", Gated: true, AllocsPerOp: 0, NsPerOp: 9999}, // slower is fine
		{Name: "machine/tcp/counter", Gated: false, AllocsPerOp: 5000},             // ungated is fine
	}}
	if regs := Compare(cur, base, 0); len(regs) != 0 {
		t.Errorf("clean comparison flagged: %v", regs)
	}

	cur.Results[0].AllocsPerOp = 2
	regs := Compare(cur, base, 0)
	if len(regs) != 1 || !strings.Contains(regs[0], "codec/context-encode") {
		t.Errorf("alloc regression not flagged: %v", regs)
	}
	if regs := Compare(cur, base, 2); len(regs) != 0 {
		t.Errorf("tolerance not honored: %v", regs)
	}

	// A gated benchmark the baseline has never seen is held to the
	// tolerance absolutely — new hot paths must start allocation-free.
	cur.Results[0].AllocsPerOp = 0
	cur.Results = append(cur.Results, Result{Name: "codec/new-path", Gated: true, AllocsPerOp: 1})
	if regs := Compare(cur, base, 0); len(regs) != 1 {
		t.Errorf("unknown gated benchmark not held to zero: %v", regs)
	}
}

func TestReportRoundTrip(t *testing.T) {
	t.Parallel()
	rep := Report{
		Schema: Schema, GoVersion: "go1.24", GOOS: "linux", GOARCH: "amd64", CPUs: 4, Short: true,
		Results: []Result{{
			Name: "x", Gated: true, N: 10, NsPerOp: 1.5, AllocsPerOp: 0, BytesPerOp: 0,
			Metrics: map[string]float64{"msgs/batch": 16},
		}},
	}
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Fatalf("round trip:\n in  %+v\n out %+v", rep, back)
	}
	if _, err := LoadReport(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing report loaded")
	}
}

// TestRunCodecSpecs executes the gated codec benchmarks through the real
// runner and demands the zero-allocation invariant the CI gate relies on.
// Skipped under -short (testing.Benchmark runs each body for ~1s).
func TestRunCodecSpecs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmarks")
	}
	rep, err := Run(regexp.MustCompile(`^codec/context-(en|de)code$`), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("got %d results", len(rep.Results))
	}
	for _, r := range rep.Results {
		if r.AllocsPerOp != 0 {
			t.Errorf("%s: %d allocs/op on the hot path, want 0", r.Name, r.AllocsPerOp)
		}
		if r.N == 0 || r.NsPerOp <= 0 {
			t.Errorf("%s: implausible result %+v", r.Name, r)
		}
	}
}
