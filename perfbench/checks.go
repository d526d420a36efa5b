package main

import (
	"bytes"
	"fmt"
	"math"
	"reflect"

	"streamcast/internal/check"
	"streamcast/internal/core"
	"streamcast/internal/faults"
	"streamcast/internal/obs"
	"streamcast/internal/slotsim"
)

// Output checks. Every quantity is recomputed here from the raw arrival
// matrix or from the paper's closed forms; nothing is compared against a
// stored copy of an earlier run, and no bound is read from internal/analysis
// or internal/check.

// recomputed holds the per-node QoS figures derived from Result.Arrival.
type recomputed struct {
	delay   []core.Slot
	buffer  []int
	missing []int
	worstD  core.Slot
	worstB  int
	totalM  int
}

// recompute derives every receiver's start delay (max_j Arrival[j]−j over
// the packets that arrived), peak buffer and missing count from the arrival
// rows alone. A packet j is buffered from the end of its arrival slot
// through the end of its playback slot start+j; occupancy is sampled at the
// end of every slot.
func recompute(res *slotsim.Result) (*recomputed, error) {
	if len(res.Arrival) != res.N+1 || len(res.StartDelay) != res.N+1 ||
		len(res.MaxBuffer) != res.N+1 || len(res.Missing) != res.N+1 {
		return nil, fmt.Errorf("result shape: N=%d but %d arrival rows, %d delays, %d buffers, %d missing",
			res.N, len(res.Arrival), len(res.StartDelay), len(res.MaxBuffer), len(res.Missing))
	}
	rc := &recomputed{
		delay:   make([]core.Slot, res.N+1),
		buffer:  make([]int, res.N+1),
		missing: make([]int, res.N+1),
	}
	var diff []int
	for id := 1; id <= res.N; id++ {
		row := res.Arrival[id]
		if len(row) != int(res.Packets) {
			return nil, fmt.Errorf("node %d: %d arrival entries for a %d-packet window", id, len(row), res.Packets)
		}
		start, seen := core.Slot(0), false
		for j, a := range row {
			if a < 0 {
				rc.missing[id]++
				continue
			}
			if d := a - core.Slot(j); !seen || d > start {
				start, seen = d, true
			}
		}
		rc.delay[id] = start
		rc.buffer[id], diff = peakOccupancy(row, start, diff)
		rc.totalM += rc.missing[id]
		if start > rc.worstD {
			rc.worstD = start
		}
		if rc.buffer[id] > rc.worstB {
			rc.worstB = rc.buffer[id]
		}
	}
	return rc, nil
}

// peakOccupancy sweeps a difference array over the slots: +1 at a packet's
// arrival slot, −1 after its playback slot. diff is reusable scratch.
func peakOccupancy(row []core.Slot, start core.Slot, diff []int) (int, []int) {
	last := core.Slot(-1)
	for j, a := range row {
		if a >= 0 && start+core.Slot(j) > last {
			last = start + core.Slot(j)
		}
	}
	if last < 0 {
		return 0, diff
	}
	n := int(last) + 2
	if cap(diff) < n {
		diff = make([]int, n)
	}
	diff = diff[:n]
	for i := range diff {
		diff[i] = 0
	}
	for j, a := range row {
		if a < 0 {
			continue
		}
		diff[a]++
		diff[start+core.Slot(j)+1]--
	}
	peak, occ := 0, 0
	for _, v := range diff {
		occ += v
		if occ > peak {
			peak = occ
		}
	}
	return peak, diff
}

// checkResult compares the engine's per-node figures with the
// recomputation.
func checkResult(res *slotsim.Result) (*recomputed, error) {
	rc, err := recompute(res)
	if err != nil {
		return nil, err
	}
	for id := 1; id <= res.N; id++ {
		switch {
		case res.StartDelay[id] != rc.delay[id]:
			return nil, fmt.Errorf("node %d: StartDelay %d, arrivals give %d", id, res.StartDelay[id], rc.delay[id])
		case res.Missing[id] != rc.missing[id]:
			return nil, fmt.Errorf("node %d: Missing %d, arrivals give %d", id, res.Missing[id], rc.missing[id])
		case rc.missing[id] == 0 && res.MaxBuffer[id] != rc.buffer[id]:
			// Nodes with a gap are left out: slotsim's maxBuffer counts a
			// missing packet's playback slot as a departure from the
			// buffer, so it undercounts there (recorded in CHANGES.md).
			return nil, fmt.Errorf("node %d: MaxBuffer %d, arrivals give %d", id, res.MaxBuffer[id], rc.buffer[id])
		}
	}
	return rc, nil
}

// checkComplete requires every receiver to hold every window packet.
func checkComplete(rc *recomputed) error {
	if rc.totalM == 0 {
		return nil
	}
	for id, m := range rc.missing {
		if m > 0 {
			return fmt.Errorf("%d packets missing in total, first at node %d (%d)", rc.totalM, id, m)
		}
	}
	return nil
}

// treeHeight is the height of the shortest complete d-ary tree (root
// excluded) holding n nodes: the smallest h with d + d² + … + d^h >= n.
func treeHeight(n, d int) int {
	h, capacity, level := 0, 0, 1
	for capacity < n {
		level *= d
		capacity += level
		h++
	}
	return h
}

// chainDelay is the worst chained-hypercube start delay of Proposition 2:
// the n receivers split into d near-equal groups, each covered by a chain
// of cubes of 2^k − 1 nodes taking the largest cube that fits, and a node's
// delay is at most the sum of its chain's dimensions.
func chainDelay(n, d int) int {
	if d > n {
		d = n
	}
	worst := 0
	for g := 0; g < d; g++ {
		size := n / d
		if g < n%d {
			size++
		}
		sum := 0
		for size > 0 {
			k := 0
			for 1<<(k+1)-1 <= size {
				k++
			}
			sum += k
			size -= 1<<k - 1
		}
		if sum > worst {
			worst = sum
		}
	}
	return worst
}

// paperBounds returns the delay and buffer ceilings the paper proves for
// the scenario, or ok=false when it has none.
func paperBounds(sc *scenario) (delay core.Slot, buffer int, ok bool) {
	switch sc.Bound {
	case boundMultiTree:
		// Theorem 2: worst delay h·d; Section 2.3: h·d buffered packets.
		// Live pipelining shifts every tree by at most d slots.
		hd := treeHeight(sc.N, sc.D) * sc.D
		if sc.Live {
			hd += sc.D
		}
		return core.Slot(hd), hd, true
	case boundHypercube:
		// Proposition 2 (chained cubes) and Proposition 1's two packets.
		return core.Slot(chainDelay(sc.N, sc.D)), 2, true
	}
	return 0, 0, false
}

func checkBounds(sc *scenario, rc *recomputed) error {
	delay, buffer, ok := paperBounds(sc)
	if !ok {
		return nil
	}
	if rc.worstD > delay {
		return fmt.Errorf("worst delay %d exceeds the paper bound %d", rc.worstD, delay)
	}
	if rc.worstB > buffer {
		return fmt.Errorf("worst buffer %d exceeds the paper bound %d", rc.worstB, buffer)
	}
	return nil
}

// checkPreflight requires a clean static report that agrees with the
// engine's measured worst delay and buffer.
func checkPreflight(rep *check.Report, rc *recomputed) error {
	if rep == nil {
		return fmt.Errorf("no preflight report")
	}
	if err := rep.Err(); err != nil {
		return fmt.Errorf("preflight: %v", err)
	}
	if rep.WorstDelay != rc.worstD || rep.WorstBuffer != rc.worstB {
		return fmt.Errorf("preflight worst delay/buffer %d/%d, engine %d/%d",
			rep.WorstDelay, rep.WorstBuffer, rc.worstD, rc.worstB)
	}
	return nil
}

// checkChurn holds every applied op to the appendix bound of d²+d swaps and
// the report's churn section to its own definitions.
func checkChurn(d int, ops []faults.LiveOp, c *obs.ChurnSLO) error {
	if c == nil {
		return fmt.Errorf("no churn section")
	}
	bound := d*d + d
	for _, op := range ops {
		if op.Stats.Swaps > bound {
			return fmt.Errorf("slot %d: op on %s took %d swaps, over the d²+d bound %d", op.Slot, op.Name, op.Stats.Swaps, bound)
		}
	}
	if c.Ops <= 0 || c.Ops != c.Joins+c.Leaves || c.Ops != len(ops) {
		return fmt.Errorf("churn ops %d, joins %d + leaves %d, op log %d", c.Ops, c.Joins, c.Leaves, len(ops))
	}
	if c.MaxSwaps > bound {
		return fmt.Errorf("max swaps %d over the d²+d bound %d", c.MaxSwaps, bound)
	}
	if c.ExpectedPackets <= 0 {
		return fmt.Errorf("no expected packets measured")
	}
	want := float64(c.Hiccups) / float64(c.ExpectedPackets)
	if math.Abs(c.RebufferRatio-want) > 1e-12 {
		return fmt.Errorf("rebuffer ratio %v, hiccups/expected = %d/%d = %v", c.RebufferRatio, c.Hiccups, c.ExpectedPackets, want)
	}
	return nil
}

// checkReport reads the encoded report back and compares its aggregates
// and churn section with the in-memory report, and the headline QoS with
// the recomputation.
func checkReport(encoded []byte, want *obs.RunReport, rc *recomputed) error {
	got, err := obs.ReadReport(bytes.NewReader(encoded))
	if err != nil {
		return fmt.Errorf("report read-back: %v", err)
	}
	if got.Aggregates != want.Aggregates {
		return fmt.Errorf("report aggregates differ after read-back: %+v vs %+v", got.Aggregates, want.Aggregates)
	}
	if !reflect.DeepEqual(got.Churn, want.Churn) {
		return fmt.Errorf("report churn section differs after read-back: %+v vs %+v", got.Churn, want.Churn)
	}
	a := got.Aggregates
	if core.Slot(a.WorstDelaySlots) != rc.worstD || a.MissingPackets != rc.totalM {
		return fmt.Errorf("report worst delay %d / missing %d, arrivals give %d / %d",
			a.WorstDelaySlots, a.MissingPackets, rc.worstD, rc.totalM)
	}
	return nil
}

// checkOutcome runs every check that applies to the scenario.
func checkOutcome(sc *scenario, o *outcome) error {
	rc, err := checkResult(o.res)
	if err != nil {
		return err
	}
	if sc.Complete {
		if err := checkComplete(rc); err != nil {
			return err
		}
	}
	if err := checkBounds(sc, rc); err != nil {
		return err
	}
	if sc.Verified {
		if err := checkPreflight(o.pre, rc); err != nil {
			return err
		}
	}
	if sc.Churn {
		if o.run.Live == nil {
			return fmt.Errorf("churn scenario built without a churn source")
		}
		if err := checkChurn(sc.D, o.run.Live.Ops(), o.report.Churn); err != nil {
			return err
		}
		if err := checkReport(o.encoded, o.report, rc); err != nil {
			return err
		}
	}
	return nil
}
