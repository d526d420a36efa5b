package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"streamcast/internal/core"
	"streamcast/internal/slotsim"
)

// span is one timed call into a layer's public function, recorded from the
// benchmark's own code; the program carries no tracing of its own.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Pass   int    `json:"pass"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	// Alloc and Mallocs are inclusive heap deltas; only spans opened with
	// mem=true read runtime.MemStats (reading them per churn step would
	// dominate the step itself).
	Mem     bool   `json:"mem"`
	Alloc   uint64 `json:"alloc_bytes,omitempty"`
	Mallocs uint64 `json:"mallocs,omitempty"`
	// Count and Count2 are the layer's work counts (transmissions,
	// node-slots, ops and swaps, report bytes).
	Count  int64 `json:"count,omitempty"`
	Count2 int64 `json:"count2,omitempty"`
}

// Root span names. An "op" root wraps one scenario of a timed pass; its
// self time is the benchmark's own glue between layer calls. A
// "standalone" root wraps the extra calls made only to derive a layer
// metric (schedule generation, the sharded engine, the run without an
// observer); it is never part of a pass.
const (
	rootOp         = "op"
	rootStandalone = "standalone"
)

// tracer keeps every span in memory until the run ends. A nil *tracer is
// tracing off: every method is a no-op.
type tracer struct {
	epoch time.Time
	pass  int
	spans []span
	open  []int
	ms    runtime.MemStats
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string, mem bool) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	s := span{ID: len(t.spans), Parent: parent, Name: name, Pass: t.pass, Mem: mem}
	if mem {
		runtime.ReadMemStats(&t.ms)
		s.Alloc, s.Mallocs = t.ms.TotalAlloc, t.ms.Mallocs
	}
	s.Start = int64(time.Since(t.epoch))
	t.spans = append(t.spans, s)
	t.open = append(t.open, s.ID)
	return s.ID
}

// end closes span id (which must be the innermost open span) and records
// its work counts.
func (t *tracer) end(id int, count, count2 int64) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.epoch))
	if s.Mem {
		runtime.ReadMemStats(&t.ms)
		s.Alloc, s.Mallocs = t.ms.TotalAlloc-s.Alloc, t.ms.Mallocs-s.Mallocs
	}
	s.Count, s.Count2 = count, count2
	t.open = t.open[:len(t.open)-1]
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedChurn wraps a run's churn source so that every ChurnSource.Step call
// becomes a faults.churn_step span counting the ops it applied and their
// swaps.
type timedChurn struct {
	slotsim.ChurnSource
	tr *tracer
}

func (c timedChurn) Step(t core.Slot, ds core.DynamicScheme) ([]core.ChurnStats, error) {
	id := c.tr.begin("faults.churn_step", false)
	stats, err := c.ChurnSource.Step(t, ds)
	var swaps int64
	for _, st := range stats {
		swaps += int64(st.Swaps)
	}
	c.tr.end(id, int64(len(stats)), swaps)
	return stats, err
}

// layerTotals sums self time, self allocation and counts per span name
// over one pass.
type layerTotals struct {
	selfNs     float64
	selfAlloc  float64
	selfAllocs float64
	incNs      float64
	count      float64
	count2     float64
}

// passTotals returns, per traced pass, the per-name totals of the spans
// under "op" roots and, separately, under "standalone" roots. Self time is
// a span's duration minus its children's; self allocation subtracts only
// the children that measured their own.
func passTotals(spans []span) (ops, alone map[int]map[string]*layerTotals) {
	ops, alone = map[int]map[string]*layerTotals{}, map[int]map[string]*layerTotals{}
	childNs := make([]int64, len(spans))
	childAlloc := make([]uint64, len(spans))
	childMallocs := make([]uint64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childNs[s.Parent] += s.End - s.Start
			if s.Mem {
				childAlloc[s.Parent] += s.Alloc
				childMallocs[s.Parent] += s.Mallocs
			}
		}
	}
	root := make([]string, len(spans))
	for i, s := range spans {
		if s.Parent < 0 {
			root[i] = s.Name
		} else {
			root[i] = root[s.Parent]
		}
		dst := ops
		if root[i] == rootStandalone {
			dst = alone
		}
		byName := dst[s.Pass]
		if byName == nil {
			byName = map[string]*layerTotals{}
			dst[s.Pass] = byName
		}
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTotals{}
			byName[s.Name] = lt
		}
		lt.incNs += float64(s.End - s.Start)
		lt.selfNs += float64(s.End - s.Start - childNs[i])
		if s.Mem {
			lt.selfAlloc += float64(s.Alloc) - float64(childAlloc[i])
			lt.selfAllocs += float64(s.Mallocs) - float64(childMallocs[i])
		}
		lt.count += float64(s.Count)
		lt.count2 += float64(s.Count2)
	}
	return ops, alone
}
