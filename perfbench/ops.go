package main

import (
	"bytes"
	"fmt"
	"runtime"

	"streamcast/internal/check"
	"streamcast/internal/core"
	"streamcast/internal/obs"
	"streamcast/internal/slotsim"
	"streamcast/internal/spec"
)

// outcome is everything one op produced that the checks inspect.
type outcome struct {
	run     *spec.Run
	res     *slotsim.Result
	pre     *check.Report
	report  *obs.RunReport
	encoded []byte
	// scheme is what the engine ran: the compiled snapshot when the traced
	// path compiled, else the built scheme. compiled records which.
	scheme   core.Scheme
	compiled bool
	runSpan  int // the traced slotsim.run span
}

// nodeSlots is the op's engine work: id space × horizon slots.
func (o *outcome) nodeSlots() float64 {
	return float64(o.res.N+1) * float64(o.run.Opt.Slots)
}

// executor runs ops through the program's public entry points. With a nil
// tracer it takes the path a user takes (Run.Execute); with a tracer it
// makes the same calls one layer at a time — core.CompileForRun, then
// slotsim.Run on the prepared scheme — so each gets its own span.
type executor struct {
	tr   *tracer
	sink bytes.Buffer // the JSON run report, reused across ops
}

func (x *executor) execute(sc *scenario) (*outcome, error) {
	tr := x.tr
	id := tr.begin("spec.parse", false)
	s, err := spec.Parse(sc.Text)
	tr.end(id, 0, 0)
	if err != nil {
		return nil, err
	}
	id = tr.begin("spec.build", true)
	run, err := spec.Build(s)
	tr.end(id, 0, 0)
	if err != nil {
		return nil, err
	}
	o := &outcome{run: run, scheme: run.Scheme}
	if sc.Verified {
		id = tr.begin("check.static", true)
		o.pre, err = run.Preflight()
		tr.end(id, 0, 0)
		if err != nil {
			return nil, err
		}
	}
	var m *obs.Metrics
	if sc.Churn {
		m = obs.NewMetrics()
		run.Opt.Observer = m
	}
	if tr == nil {
		o.res, err = run.Execute()
	} else {
		err = x.tracedRun(o)
	}
	if err != nil {
		return nil, err
	}
	if sc.Churn {
		id = tr.begin("slotsim.slo", false)
		churn := run.ChurnReport(o.res)
		tr.end(id, 0, 0)
		id = tr.begin("obs.report", true)
		o.report = slotsim.BuildReport(run.Scheme, run.Opt, o.res, m, 0)
		o.report.Churn = churn
		x.sink.Reset()
		err = o.report.WriteJSON(&x.sink)
		tr.end(id, int64(x.sink.Len()), 0)
		if err != nil {
			return nil, err
		}
		o.encoded = x.sink.Bytes()
	}
	return o, nil
}

// tracedRun is Run.Execute split at its layer boundaries. A live-churn run
// compiles per topology epoch inside the engine, so only static schemes get
// a core.compile span; the churn source is wrapped so each Step is a span.
func (x *executor) tracedRun(o *outcome) error {
	tr, opt := x.tr, o.run.Opt
	if opt.Churn != nil {
		opt.Churn = timedChurn{opt.Churn, tr}
	} else {
		id := tr.begin("core.compile", true)
		c := core.CompileForRun(o.run.Scheme, opt.Slots)
		var window int64
		if c != nil {
			_, _, backing, _ := c.Window()
			window = int64(len(backing))
			o.scheme, o.compiled = c, true
		}
		tr.end(id, window, 0)
	}
	id := tr.begin("slotsim.run", true)
	o.runSpan = id
	res, err := slotsim.Run(o.scheme, opt)
	var nodeSlots int64
	if res != nil {
		nodeSlots = int64(res.N+1) * int64(opt.Slots)
	}
	tr.end(id, nodeSlots, 0)
	o.res = res
	return err
}

// standalone makes the calls that exist only to derive a layer metric,
// outside any pass: the uncompiled schedule generated on its own, the
// sharded engine at two workers, and, for observed runs, the same run with
// no observer (a live-churn run is single-shot, so it is built again).
func (x *executor) standalone(sc *scenario, o *outcome) error {
	tr := x.tr
	root := tr.begin(rootStandalone, false)
	defer tr.end(root, 0, 0)
	if sc.Churn {
		s, err := spec.Parse(sc.Text)
		if err != nil {
			return err
		}
		run, err := spec.Build(s)
		if err != nil {
			return err
		}
		opt := run.Opt
		opt.Churn = timedChurn{opt.Churn, tr}
		id := tr.begin("slotsim.run_bare", true)
		_, err = slotsim.Run(run.Scheme, opt)
		// Count names the observed twin so the pair can be matched.
		tr.end(id, int64(o.runSpan), 0)
		return err
	}
	if !o.compiled {
		id := tr.begin("schedule.gen", true)
		var txs int64
		for t := core.Slot(0); t < o.run.Opt.Slots; t++ {
			txs += int64(len(o.run.Scheme.Transmissions(t)))
		}
		tr.end(id, txs, 0)
	}
	// The sharded engine gets a second P for its second worker.
	prev := runtime.GOMAXPROCS(2)
	id := tr.begin("slotsim.sharded2", true)
	res, err := slotsim.RunParallel(o.scheme, o.run.Opt, 2)
	tr.end(id, 0, 0)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	// The sharded engine must agree with the sequential one.
	if res.WorstStartDelay() != o.res.WorstStartDelay() || res.WorstBuffer() != o.res.WorstBuffer() {
		return fmt.Errorf("sharded-2 worst delay/buffer %d/%d, sequential %d/%d",
			res.WorstStartDelay(), res.WorstBuffer(), o.res.WorstStartDelay(), o.res.WorstBuffer())
	}
	return nil
}
