package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// bound names the paper closed form a scenario's output is held to. The
// values are computed by this package (checks.go) from the generator's own
// parameters, never read back from the program.
type bound int

const (
	boundNone      bound = iota
	boundMultiTree       // Thm 2 delay h·d (+d live), Section 2.3 buffer h·d (+d live)
	boundHypercube       // Prop 2 delay Σ chain dims, Prop 1 buffer 2
)

// scenario is one op of a workload: the scenario text handed to the
// program plus the parameters the checks need to recompute its bounds.
type scenario struct {
	Name  string
	Text  string
	Bound bound
	N, D  int  // receivers and degree as generated (multitree / hypercube)
	Live  bool // live stream mode (adds d to the multi-tree bounds)
	// Complete requires every receiver to get every window packet.
	Complete bool
	// Verified runs the static preflight (the scenario has `check`).
	Verified bool
	// Churn is a live-churn scenario: it gets the full JSON run report
	// and the churn checks.
	Churn bool
}

// workload is a named, seed-generated list of scenarios; one pass is one
// trip over the list.
type workload struct {
	Name string
	Gen  func(r *rand.Rand) []scenario
}

var workloads = []workload{
	{"oneshot-large", genOneshotLarge},
	{"verified-sweep", genVerifiedSweep},
	{"live-churn", genLiveChurn},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// generate returns the workload's scenario list for a seed. The seed only
// jitters sizes by under 1% and picks the stochastic families' seeds, so a
// pass costs about the same on every seed.
func generate(w workload, seed int64) []scenario {
	return w.Gen(rand.New(rand.NewSource(seed)))
}

// jitter returns n plus a seeded offset in [0, n/frac].
func jitter(r *rand.Rand, n, frac int) int { return n + r.Intn(n/frac+1) }

// genOneshotLarge: four cold scenarios at the scale the paper's asymptotics
// address, each Parse→Build→Execute with no observer. The multitree leg
// compiles its schedule; the chained-hypercube leg declines compilation
// (its period, the lcm of the chain's cube dimensions, exceeds the horizon)
// and regenerates every slot.
func genOneshotLarge(r *rand.Rand) []scenario {
	mt := jitter(r, 100000, 200)
	hc := jitter(r, 20000, 200)
	rr, rrSeed := jitter(r, 20000, 200), r.Int63n(1<<31)+1
	cl := jitter(r, 2000, 200)
	return []scenario{
		{
			Name:  fmt.Sprintf("multitree-n%d-d3", mt),
			Text:  fmt.Sprintf("scheme multitree\nparam n=%d d=3\n", mt),
			Bound: boundMultiTree, N: mt, D: 3, Complete: true,
		},
		{
			Name:  fmt.Sprintf("hypercube-n%d-d2", hc),
			Text:  fmt.Sprintf("scheme hypercube\nparam n=%d d=2\n", hc),
			Bound: boundHypercube, N: hc, D: 2, Live: true, Complete: true,
		},
		{
			Name: fmt.Sprintf("randreg-latin-n%d-seed%d", rr, rrSeed),
			Text: fmt.Sprintf("scheme randreg\nparam n=%d degree=3 mode=latin seed=%d\n", rr, rrSeed),
		},
		{
			Name:     fmt.Sprintf("cluster-k9-n%d", cl),
			Text:     fmt.Sprintf("scheme cluster\nparam k=9 D=3 d=3 n=%d\n", cl),
			Complete: true,
		},
	}
}

// genVerifiedSweep: thirty small-to-mid scenarios with the `check`
// directive, the shape every experiment row takes
// (Parse→Build→Preflight→Execute). None runs long enough to compile.
func genVerifiedSweep(r *rand.Rand) []scenario {
	var out []scenario
	for _, base := range []int{255, 1000, 4000} {
		for d := 2; d <= 5; d++ {
			for _, v := range []struct{ cons, mode string }{{"greedy", "prerecorded"}, {"structured", "live"}} {
				n := jitter(r, base, 64)
				out = append(out, scenario{
					Name: fmt.Sprintf("multitree-%s-%s-n%d-d%d", v.cons, v.mode, n, d),
					Text: fmt.Sprintf("scheme multitree\nparam n=%d d=%d construction=%s\nmode %s\ncheck\n",
						n, d, v.cons, v.mode),
					Bound: boundMultiTree, N: n, D: d, Live: v.mode == "live",
					Complete: true, Verified: true,
				})
			}
		}
	}
	// Single cubes (N = 2^k − 1, d = 1) keep their exact sizes; the chained
	// ones are jittered.
	cubes := [][2]int{{2047, 1}, {511, 1}, {jitter(r, 700, 64), 1}, {jitter(r, 3000, 64), 2}}
	for _, c := range cubes {
		out = append(out, scenario{
			Name:  fmt.Sprintf("hypercube-n%d-d%d", c[0], c[1]),
			Text:  fmt.Sprintf("scheme hypercube\nparam n=%d d=%d\ncheck\n", c[0], c[1]),
			Bound: boundHypercube, N: c[0], D: c[1], Live: true,
			Complete: true, Verified: true,
		})
	}
	cl := jitter(r, 200, 64)
	out = append(out, scenario{
		Name:     fmt.Sprintf("cluster-k4-n%d", cl),
		Text:     fmt.Sprintf("scheme cluster\nparam k=4 D=3 tc=3 n=%d d=3\ncheck\n", cl),
		Complete: true, Verified: true,
	})
	return out
}

// genLiveChurn: one multi-tree under three live churn generators, each
// with the full JSON run report. Membership changes mid-run, so the
// static paper bounds do not apply; the churn checks do.
func genLiveChurn(r *rand.Rand) []scenario {
	kinds := []struct{ kind, extra string }{
		{"poisson", "rate=0.5 max=150 slots=10..150"},
		{"flash", "rate=1.5 max=150 policy=lazy slots=20..120"},
		{"wave", "rate=1 max=150 slots=10.."},
	}
	var out []scenario
	for _, k := range kinds {
		seed := r.Int63n(1<<31) + 1
		out = append(out, scenario{
			Name: fmt.Sprintf("multitree-n5000-d3-%s-seed%d", k.kind, seed),
			Text: fmt.Sprintf("scheme multitree\nparam n=5000 d=3\nmode live\npackets 200\nchurn kind=%s %s seed=%d\n",
				k.kind, k.extra, seed),
			N: 5000, D: 3, Live: true, Churn: true,
		})
	}
	return out
}
