package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func goodSession() sessionOutcome {
	return sessionOutcome{
		origConflict:     true,
		analyticConflict: true,
		fixConflict:      false,
		pad:              16,
		report:           sha256.Sum256([]byte("report")),
		fixReport:        sha256.Sum256([]byte("fixed report")),
	}
}

func TestCheckSessionFires(t *testing.T) {
	good := goodSession()
	if err := checkSession(good, good, true); err != nil {
		t.Fatalf("clean repeat rejected: %v", err)
	}
	flipped := []byte("report")
	flipped[0] ^= 1
	cases := map[string]func(o *sessionOutcome){
		"original verdict clean": func(o *sessionOutcome) { o.origConflict = false },
		"analytic verdict clean": func(o *sessionOutcome) { o.analyticConflict = false },
		"fix still conflicted":   func(o *sessionOutcome) { o.fixConflict = true },
		"report byte flipped":    func(o *sessionOutcome) { o.report = sha256.Sum256(flipped) },
		"fixed report differs":   func(o *sessionOutcome) { o.fixReport = sha256.Sum256([]byte("fixed report!")) },
		"different pad":          func(o *sessionOutcome) { o.pad = 32 },
	}
	for name, corrupt := range cases {
		o := good
		corrupt(&o)
		if err := checkSession(o, good, true); err == nil {
			t.Errorf("%s: check did not fire", name)
		}
	}
	// A first run has nothing to repeat; only the verdicts are checked.
	if err := checkSession(good, sessionOutcome{}, false); err != nil {
		t.Errorf("first run rejected: %v", err)
	}
}

func TestCheckSameBytesFires(t *testing.T) {
	cctb := []byte("CCTB\x01 frames")
	want := sha256.Sum256(cctb)
	if err := checkSameBytes("CCTB", sha256.Sum256(cctb), want); err != nil {
		t.Fatalf("identical bytes rejected: %v", err)
	}
	bad := append([]byte(nil), cctb...)
	bad[len(bad)-1] ^= 0x80
	if err := checkSameBytes("CCTB", sha256.Sum256(bad), want); err == nil {
		t.Error("flipped byte not detected")
	}
}

func TestCheckArtifactFires(t *testing.T) {
	data := []byte("profiled kripke: 270464 refs, 1 L1-miss events\n")
	sum := sha256.Sum256(data)
	hash := hex.EncodeToString(sum[:])
	if err := checkArtifact(data, hash, hash); err != nil {
		t.Fatalf("intact artifact rejected: %v", err)
	}
	tampered := append([]byte(nil), data...)
	tampered[3] = 'X'
	if err := checkArtifact(tampered, hash, hash); err == nil {
		t.Error("tampered artifact not detected")
	}
	if err := checkArtifact(data, hash, strings.Repeat("0", 64)); err == nil {
		t.Error("wrong X-Artifact-Sha256 header not detected")
	}
}

func TestCheckRepeatHashFires(t *testing.T) {
	seen := map[string]string{}
	if err := checkRepeatHash(seen, "profile/fft", "aaaa"); err != nil {
		t.Fatal(err)
	}
	if err := checkRepeatHash(seen, "profile/fft", "aaaa"); err != nil {
		t.Fatalf("identical repeat rejected: %v", err)
	}
	if err := checkRepeatHash(seen, "profile/fft", "bbbb"); err == nil {
		t.Error("changed artifact of a pinned repeat not detected")
	}
}

func TestCheckProfileRefsFires(t *testing.T) {
	art := []byte("profiled kripke: 270464 refs, 9 L1-miss events, 1 samples (mean period 171)\n\nreport\n")
	if err := checkProfileRefs(art, 270464); err != nil {
		t.Fatalf("matching count rejected: %v", err)
	}
	if err := checkProfileRefs(art, 270465); err == nil {
		t.Error("wrong reference count not detected")
	}
	if err := checkProfileRefs([]byte("garbage\n"), 1); err == nil {
		t.Error("malformed artifact not detected")
	}
}

func TestLayerBudgetSumsToWall(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "core.ProfileProgram", Start: 10, End: 50, Parent: 0},
		{Name: "advisor.RecommendPad", Start: 50, End: 90, Parent: 0},
		{Name: "advisor.tiers", Start: 50, End: 60, Parent: 2},
		{Name: "workloads.SpecBuilder", Start: 52, End: 55, Parent: 3},
		{Name: "advisor.simulate", Start: 60, End: 90, Parent: 2},
		{Name: "workloads.RunThread", Start: 200, End: 300, Parent: -1}, // a probe
	}
	rows, wall := layerBudget(spans)
	if wall != 100 {
		t.Fatalf("op wall %d, want 100", wall)
	}
	got := map[string]float64{}
	var sum float64
	for _, r := range rows {
		got[r.Layer] = r.SelfMs * 1e6
		sum += r.Pct
	}
	want := map[string]float64{unexplained: 20, "core": 40, "advisor": 7 + 30, "workloads": 3}
	for layer, ns := range want {
		if d := got[layer] - ns; d > 1e-6 || d < -1e-6 {
			t.Errorf("%s self %.1f ns, want %.1f", layer, got[layer], ns)
		}
	}
	if sum < 99.999 || sum > 100.001 {
		t.Errorf("budget rows sum to %.3f%% of wall", sum)
	}
}

func TestCoveredCountsOverlapOnce(t *testing.T) {
	spans := []span{
		{Start: 0, End: 100},
		{Start: 60, End: 80}, {Start: 70, End: 85}, // concurrent children
		{Start: 90, End: 120}, // ends after its parent
	}
	if got := covered(spans, []int{1, 2, 3}, spans[0]); got != 25+10 {
		t.Errorf("covered %d ns, want 35", got)
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric names and units the
// benchmark prints in step with the ones BENCHMARK.json declares.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, declared []struct{ Name, Unit string }, printed []metricDef) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", kind, len(declared), len(printed))
		}
		units := map[string]string{}
		for _, d := range printed {
			units[d.name] = d.unit
		}
		for _, d := range declared {
			if u, ok := units[d.Name]; !ok || u != d.Unit {
				t.Errorf("%s: %s [%s] in BENCHMARK.json, benchmark prints unit %q (known %v)", kind, d.Name, d.Unit, u, ok)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
}
