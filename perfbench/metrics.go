package main

import (
	"fmt"
	"sort"
)

// metricDef is one printed metric; the tables below are the single source
// of the names and units BENCHMARK.json lists (a test holds them equal).
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are printed with --trace 0, measured with tracing off.
var endToEnd = []metricDef{
	{"pass_ms", "ms", "lower"},
	{"node_slots_per_s", "1/s", "higher"},
	{"alloc_mb_per_pass", "MB", "lower"},
	{"allocs_per_pass", "count", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are printed with --trace 1: medians over traced passes of span
// self times and counts. A layer a workload never calls reads 0.
var perLayer = []metricDef{
	{"spec.parse_ms", "ms", "lower"},
	{"spec.build_ms", "ms", "lower"},
	{"spec.build_alloc_mb", "MB", "lower"},
	{"core.compile_ms", "ms", "lower"},
	{"core.compile_alloc_mb", "MB", "lower"},
	{"core.window_txs", "count", "lower"},
	{"schedule.gen_ms", "ms", "lower"},
	{"schedule.gen_alloc_mb", "MB", "lower"},
	{"schedule.txs", "count", "lower"},
	{"check.static_ms", "ms", "lower"},
	{"check.static_alloc_mb", "MB", "lower"},
	{"slotsim.run_ms", "ms", "lower"},
	{"slotsim.run_allocs", "count", "lower"},
	{"slotsim.node_slots", "count", "higher"},
	{"slotsim.sharded2_ms", "ms", "lower"},
	{"slotsim.slo_ms", "ms", "lower"},
	{"faults.churn_step_ms", "ms", "lower"},
	{"faults.churn_ops", "count", "higher"},
	{"faults.swaps", "count", "lower"},
	{"obs.observer_ms", "ms", "lower"},
	{"obs.observer_alloc_mb", "MB", "lower"},
	{"obs.report_ms", "ms", "lower"},
	{"obs.report_bytes", "bytes", "lower"},
	{"trace.untraced_pass_ms", "ms", "lower"},
	{"trace.traced_pass_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.layer_self_ms", "ms", "lower"},
	{"trace.glue_ms", "ms", "lower"},
}

// metricValue is one entry of the printed metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricsObject pairs every defined metric with its measured value. A
// value with no definition, or a definition with no value, is an error:
// the printed set is exactly the declared set.
func metricsObject(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if _, dup := out[d.Name]; dup {
			return nil, fmt.Errorf("metric %s defined twice", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is measured but not defined", name)
		}
	}
	return out, nil
}

// median returns the middle value (the mean of the two middle values for
// an even count); 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// untracedMetrics derives the end-to-end metrics from the timed passes.
func untracedMetrics(passes []passStats, setup []float64, peakRSSBytes float64) map[string]float64 {
	var ms, alloc, allocs []float64
	for _, p := range passes {
		ms = append(ms, p.ms)
		alloc = append(alloc, p.alloc)
		allocs = append(allocs, p.mallocs)
	}
	passMs := median(ms)
	return map[string]float64{
		"pass_ms":           passMs,
		"node_slots_per_s":  passes[0].nodeSlots / (passMs / 1e3),
		"alloc_mb_per_pass": median(alloc) / 1e6,
		"allocs_per_pass":   median(allocs),
		"peak_rss_mb":       peakRSSBytes / 1e6,
		"setup_s":           median(setup),
	}
}

// layerMetrics derives the per-layer metrics from the spans of the traced
// passes, with the untraced passes of the same process as the reference
// for the tracing overhead.
func layerMetrics(spans []span, untracedMs []float64) map[string]float64 {
	ops, alone := passTotals(spans)
	observer := observerCost(spans)
	var passes []int
	for p := range ops {
		passes = append(passes, p)
	}
	sort.Ints(passes)
	series := map[string][]float64{}
	add := func(name string, v float64) { series[name] = append(series[name], v) }
	get := func(m map[string]*layerTotals, name string) *layerTotals {
		if lt := m[name]; lt != nil {
			return lt
		}
		return &layerTotals{}
	}
	for _, p := range passes {
		o, a := ops[p], alone[p]
		add("spec.parse_ms", get(o, "spec.parse").selfNs/1e6)
		add("spec.build_ms", get(o, "spec.build").selfNs/1e6)
		add("spec.build_alloc_mb", get(o, "spec.build").selfAlloc/1e6)
		add("core.compile_ms", get(o, "core.compile").selfNs/1e6)
		add("core.compile_alloc_mb", get(o, "core.compile").selfAlloc/1e6)
		add("core.window_txs", get(o, "core.compile").count)
		add("schedule.gen_ms", get(a, "schedule.gen").selfNs/1e6)
		add("schedule.gen_alloc_mb", get(a, "schedule.gen").selfAlloc/1e6)
		add("schedule.txs", get(a, "schedule.gen").count)
		add("check.static_ms", get(o, "check.static").selfNs/1e6)
		add("check.static_alloc_mb", get(o, "check.static").selfAlloc/1e6)
		add("slotsim.run_ms", get(o, "slotsim.run").selfNs/1e6)
		add("slotsim.run_allocs", get(o, "slotsim.run").selfAllocs)
		add("slotsim.node_slots", get(o, "slotsim.run").count)
		add("slotsim.sharded2_ms", get(a, "slotsim.sharded2").incNs/1e6)
		add("slotsim.slo_ms", get(o, "slotsim.slo").selfNs/1e6)
		add("faults.churn_step_ms", get(o, "faults.churn_step").selfNs/1e6)
		add("faults.churn_ops", get(o, "faults.churn_step").count)
		add("faults.swaps", get(o, "faults.churn_step").count2)
		add("obs.observer_ms", observer[p][0]/1e6)
		add("obs.observer_alloc_mb", observer[p][1]/1e6)
		add("obs.report_ms", get(o, "obs.report").selfNs/1e6)
		add("obs.report_bytes", get(o, "obs.report").count)
		var layers float64
		for name, lt := range o {
			if name != rootOp {
				layers += lt.selfNs
			}
		}
		add("trace.traced_pass_ms", get(o, rootOp).incNs/1e6)
		add("trace.layer_self_ms", layers/1e6)
		add("trace.glue_ms", get(o, rootOp).selfNs/1e6)
	}
	out := map[string]float64{}
	for name, v := range series {
		out[name] = median(v)
	}
	ref := median(untracedMs)
	out["trace.untraced_pass_ms"] = ref
	out["trace.overhead_pct"] = 0
	if ref > 0 {
		out["trace.overhead_pct"] = (out["trace.traced_pass_ms"] - ref) / ref * 100
	}
	return out
}

// observerCost pairs every observer-less twin run with the observed run it
// repeats and returns, per pass, the summed time and allocation the
// observer added: {ns, bytes}.
func observerCost(spans []span) map[int][2]float64 {
	out := map[int][2]float64{}
	for _, s := range spans {
		if s.Name != "slotsim.run_bare" || s.Count < 0 || int(s.Count) >= len(spans) {
			continue
		}
		tw := spans[s.Count]
		c := out[s.Pass]
		c[0] += float64(tw.End-tw.Start) - float64(s.End-s.Start)
		c[1] += float64(tw.Alloc) - float64(s.Alloc)
		out[s.Pass] = c
	}
	return out
}
