// Command perfbench is streamcast's end-to-end benchmark. It replays a
// workload's seed-generated scenario texts through the public entry points
// (spec.Parse → spec.Build → [Run.Preflight] → Run.Execute → [report]) on a
// single goroutine, checks every output outside the timed interval, and
// prints its metrics; the last line of standard output is one JSON object.
//
//	perfbench --workload oneshot-large --seed 1 --seconds 20 --trace 0
//
// --trace 1 makes a separate traced run: untraced reference passes for the
// first half of the time, then passes in which every call into a layer is a
// span, written as JSON lines to --trace-out. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
)

// processStart approximates process start: package variables initialize
// before main runs.
var processStart = time.Now()

// setupRounds is how many times an untraced run sets up; setup_s is their
// median.
const setupRounds = 5

// passStats is one timed pass: the summed op times and heap deltas, with
// the output checks excluded.
type passStats struct {
	ms, alloc, mallocs, nodeSlots float64
}

// result is the final line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// bench drives one workload.
type bench struct {
	list      []scenario
	x         executor
	attempted int
	failed    int
	wrong     int // ops whose output failed a check
}

// pass runs every scenario once, timing each op and reading the heap
// counters around it; checks (and, when traced, the standalone calls) run
// after the op's timer stops.
func (b *bench) pass() passStats {
	var st passStats
	var m0, m1 runtime.MemStats
	for i := range b.list {
		sc := &b.list[i]
		// Each op starts cold, as a one-shot run in a fresh process does:
		// the previous op's garbage is collected, and the second collection
		// empties slotsim's pool of Runners. Not timed.
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		root := b.x.tr.begin(rootOp, false)
		o, err := b.x.execute(sc)
		b.x.tr.end(root, 0, 0)
		el := time.Since(t0)
		runtime.ReadMemStats(&m1)
		b.attempted++
		if err != nil {
			b.fail(sc, "run", err)
			continue
		}
		st.ms += float64(el) / 1e6
		st.alloc += float64(m1.TotalAlloc - m0.TotalAlloc)
		st.mallocs += float64(m1.Mallocs - m0.Mallocs)
		st.nodeSlots += o.nodeSlots()
		err = checkOutcome(sc, o)
		if err == nil && b.x.tr != nil {
			err = b.x.standalone(sc, o)
		}
		if err != nil {
			b.wrong++
			b.fail(sc, "check", err)
		}
	}
	return st
}

func (b *bench) fail(sc *scenario, stage string, err error) {
	b.failed++
	if b.failed <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s: %v\n", sc.Name, stage, err)
	}
}

// passesFor runs whole passes until d has elapsed (at least one).
func (b *bench) passesFor(d time.Duration) []passStats {
	var out []passStats
	start := time.Now()
	for len(out) == 0 || time.Since(start) < d {
		out = append(out, b.pass())
		if b.x.tr != nil {
			b.x.tr.pass++
		}
	}
	return out
}

// setup generates the inputs and makes one warm-up pass (checked, not
// timed), so one-time initialisation is done before timing.
func (b *bench) setup(w workload, seed int64) {
	b.list = generate(w, seed)
	b.pass()
}

func peakRSSBytes() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: oneshot-large, verified-sweep or live-churn")
		seed     = flag.Int64("seed", 1, "seed the scenario list is generated from")
		seconds  = flag.Int("seconds", 10, "seconds of timed passes")
		traced   = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		traceOut = flag.String("trace-out", "", "span file of a traced run (default .bench_build/perfbench/trace-<workload>-<seed>.jsonl)")
	)
	flag.Parse()
	// One goroutine drives the load, and the collector shares its one P
	// rather than racing it for a second CPU that other tenants also use.
	runtime.GOMAXPROCS(1)
	w, err := lookupWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fatal(fmt.Errorf("need --seconds >= 1 and --trace 0 or 1"))
	}
	dur := time.Duration(*seconds) * time.Second

	var b bench
	var vals map[string]float64
	defs := endToEnd
	if *traced == 0 {
		var setup []float64
		for i := 0; i < setupRounds; i++ {
			t0 := time.Now()
			if i == 0 {
				t0 = processStart
			}
			b.setup(w, *seed)
			setup = append(setup, time.Since(t0).Seconds())
		}
		vals = untracedMetrics(b.passesFor(dur), setup, peakRSSBytes())
	} else {
		defs = perLayer
		b.setup(w, *seed)
		var ref []float64
		for _, p := range b.passesFor(dur / 2) {
			ref = append(ref, p.ms)
		}
		b.x.tr = newTracer()
		b.passesFor(dur - dur/2)
		vals = layerMetrics(b.x.tr.spans, ref)
		path := *traceOut
		if path == "" {
			path = fmt.Sprintf(".bench_build/perfbench/trace-%s-%d.jsonl", w.Name, *seed)
		}
		if err := b.x.tr.write(path); err != nil {
			fatal(fmt.Errorf("writing spans: %v", err))
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(b.x.tr.spans), path)
	}

	metrics, err := metricsObject(defs, vals)
	if err != nil {
		fatal(err)
	}
	for _, d := range defs {
		fmt.Printf("%-24s %16.4f %s\n", d.Name, metrics[d.Name].Value, d.Unit)
	}
	out, err := json.Marshal(result{
		Correct:   b.wrong == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(2)
}
