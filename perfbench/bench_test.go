package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"streamcast/internal/core"
	"streamcast/internal/faults"
	"streamcast/internal/obs"
	"streamcast/internal/spec"
)

// small scenarios of every op shape, cheap enough for a unit test.
func smallList() []scenario {
	return []scenario{
		{Name: "mt", Text: "scheme multitree\nparam n=60 d=3\n", Bound: boundMultiTree, N: 60, D: 3, Complete: true},
		{Name: "mt-live-check", Text: "scheme multitree\nparam n=40 d=2 construction=structured\nmode live\ncheck\n",
			Bound: boundMultiTree, N: 40, D: 2, Live: true, Complete: true, Verified: true},
		{Name: "hc", Text: "scheme hypercube\nparam n=100 d=2\ncheck\n", Bound: boundHypercube, N: 100, D: 2,
			Live: true, Complete: true, Verified: true},
		{Name: "churn", Text: "scheme multitree\nparam n=200 d=3\nmode live\npackets 60\nchurn kind=poisson rate=0.5 max=20 seed=3 slots=5..40\n",
			N: 200, D: 3, Live: true, Churn: true},
	}
}

func runSmall(t *testing.T, sc *scenario) *outcome {
	t.Helper()
	var x executor
	o, err := x.execute(sc)
	if err != nil {
		t.Fatalf("%s: %v", sc.Name, err)
	}
	if err := checkOutcome(sc, o); err != nil {
		t.Fatalf("%s: clean run rejected: %v", sc.Name, err)
	}
	return o
}

func TestChecksRejectCorruptedArrival(t *testing.T) {
	sc := smallList()[0]
	o := runSmall(t, &sc)
	// One packet of node 7 arriving later than recorded moves its start
	// delay, which the engine's figures no longer match.
	o.res.Arrival[7][2] += 5
	if err := checkOutcome(&sc, o); err == nil || !strings.Contains(err.Error(), "StartDelay") {
		t.Fatalf("corrupted arrival accepted: %v", err)
	}
}

func TestChecksRejectMissingPacket(t *testing.T) {
	sc := smallList()[0]
	o := runSmall(t, &sc)
	// Drop a packet and make the engine's own figures agree with the loss:
	// only the completeness check is left to catch it.
	o.res.Arrival[5][3] = -1
	rc, err := recompute(o.res)
	if err != nil {
		t.Fatal(err)
	}
	o.res.Missing[5], o.res.StartDelay[5] = rc.missing[5], rc.delay[5]
	if err := checkOutcome(&sc, o); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("missing packet accepted: %v", err)
	}
}

func TestChecksRejectSwapBound(t *testing.T) {
	const d = 3
	slo := &obs.ChurnSLO{Ops: 2, Joins: 1, Leaves: 1, ExpectedPackets: 10, Hiccups: 1, RebufferRatio: 0.1}
	ops := []faults.LiveOp{{Stats: core.ChurnStats{Swaps: d*d + d}}, {Leave: true, Stats: core.ChurnStats{Swaps: 1}}}
	if err := checkChurn(d, ops, slo); err != nil {
		t.Fatalf("ops at the bound rejected: %v", err)
	}
	ops[1].Stats.Swaps = d*d + d + 1
	if err := checkChurn(d, ops, slo); err == nil || !strings.Contains(err.Error(), "bound") {
		t.Fatalf("op over the d²+d bound accepted: %v", err)
	}
	ops[1].Stats.Swaps = 1
	bad := *slo
	bad.RebufferRatio = 0.2
	if err := checkChurn(d, ops, &bad); err == nil {
		t.Fatal("rebuffer ratio that is not hiccups/expected accepted")
	}
	bad = *slo
	bad.Joins = 2
	if err := checkChurn(d, ops, &bad); err == nil {
		t.Fatal("ops != joins + leaves accepted")
	}
}

func TestChecksRejectReportMismatch(t *testing.T) {
	sc := smallList()[3]
	o := runSmall(t, &sc)
	o.report.Aggregates.Deliveries++
	if err := checkOutcome(&sc, o); err == nil || !strings.Contains(err.Error(), "aggregates") {
		t.Fatalf("report that reads back differently accepted: %v", err)
	}
}

func TestPaperClosedForms(t *testing.T) {
	for _, c := range []struct{ n, d, h int }{{1, 2, 1}, {2, 2, 1}, {3, 2, 2}, {6, 2, 2}, {7, 2, 3}, {100000, 3, 11}, {254, 2, 7}, {255, 2, 8}} {
		if got := treeHeight(c.n, c.d); got != c.h {
			t.Errorf("treeHeight(%d,%d) = %d, want %d", c.n, c.d, got, c.h)
		}
	}
	// 10000 = 8191 + 1023 + 511 + 255 + 15 + 3 + 1 + 1 → 13+10+9+8+4+2+1+1.
	for _, c := range []struct{ n, d, want int }{{7, 1, 3}, {2047, 1, 11}, {8, 1, 4}, {20000, 2, 48}, {20001, 2, 48}} {
		if got := chainDelay(c.n, c.d); got != c.want {
			t.Errorf("chainDelay(%d,%d) = %d, want %d", c.n, c.d, got, c.want)
		}
	}
}

func TestSeedGeneratesSameScenarios(t *testing.T) {
	for _, w := range workloads {
		a, b := generate(w, 42), generate(w, 42)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 42 generated two different lists", w.Name)
		}
		if reflect.DeepEqual(a, generate(w, 43)) {
			t.Errorf("%s: seeds 42 and 43 generated the same list", w.Name)
		}
		for _, sc := range a {
			if _, err := spec.Parse(sc.Text); err != nil {
				t.Errorf("%s: %s: %v", w.Name, sc.Name, err)
			}
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%v\nprinted:\n%v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\nprinted:\n%v", bj.PerLayer, perLayer)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	var listed []string
	for _, w := range bj.Workloads {
		listed = append(listed, w.Name)
	}
	if !reflect.DeepEqual(names, listed) {
		t.Errorf("workloads in BENCHMARK.json %v, program %v", listed, names)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s printed twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestPassPrintsDeclaredMetrics drives untraced and traced passes over the
// small list and requires the printed metric sets to be exactly the
// declared ones, with every op passing its checks.
func TestPassPrintsDeclaredMetrics(t *testing.T) {
	b := bench{list: smallList()}
	untraced := []passStats{b.pass(), b.pass()}
	if _, err := metricsObject(endToEnd, untracedMetrics(untraced, []float64{1}, 1)); err != nil {
		t.Fatal(err)
	}
	b.x.tr = newTracer()
	b.pass()
	b.x.tr.pass++
	b.pass()
	vals := layerMetrics(b.x.tr.spans, []float64{untraced[0].ms, untraced[1].ms})
	if _, err := metricsObject(perLayer, vals); err != nil {
		t.Fatal(err)
	}
	if b.failed != 0 || b.attempted != 4*len(b.list) {
		t.Fatalf("%d of %d ops failed", b.failed, b.attempted)
	}
	for _, name := range []string{"slotsim.run_ms", "check.static_ms", "faults.churn_ops", "obs.report_bytes", "slotsim.sharded2_ms"} {
		if vals[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, vals[name])
		}
	}
	// A traced pass's layers and glue cover its wall time exactly.
	if got, want := vals["trace.layer_self_ms"]+vals["trace.glue_ms"], vals["trace.traced_pass_ms"]; got < want*0.999 || got > want*1.001 {
		t.Errorf("layer self times %v + glue %v do not add up to the traced pass %v",
			vals["trace.layer_self_ms"], vals["trace.glue_ms"], want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: rootOp, Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "slotsim.run", Start: 10, End: 90, Mem: true, Alloc: 50, Mallocs: 5, Count: 7},
		{ID: 2, Parent: 1, Name: "faults.churn_step", Start: 20, End: 30, Count: 2, Count2: 3},
		{ID: 3, Parent: 1, Name: "faults.churn_step", Start: 40, End: 45, Count: 1, Count2: 1},
		{ID: 4, Parent: -1, Name: rootStandalone, Start: 100, End: 200},
		{ID: 5, Parent: 4, Name: "slotsim.run_bare", Start: 110, End: 150, Mem: true, Alloc: 20, Count: 1},
	}
	ops, alone := passTotals(spans)
	run := ops[0]["slotsim.run"]
	if run.selfNs != 65 || run.incNs != 80 || run.selfAlloc != 50 || run.count != 7 {
		t.Errorf("slotsim.run totals %+v", *run)
	}
	cs := ops[0]["faults.churn_step"]
	if cs.selfNs != 15 || cs.count != 3 || cs.count2 != 4 {
		t.Errorf("churn step totals %+v", *cs)
	}
	if ops[0][rootOp].selfNs != 20 || alone[0]["slotsim.run_bare"] == nil || ops[0]["slotsim.run_bare"] != nil {
		t.Errorf("roots not separated: %+v %+v", ops[0], alone[0])
	}
	if got := observerCost(spans)[0]; got != [2]float64{40, 30} {
		t.Errorf("observer cost %v, want [40 30]", got)
	}
}
