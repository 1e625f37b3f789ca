// Command experiments runs the full reproduction suite: one experiment per
// paper claim, example, lemma, and figure (the experiment index lives in
// DESIGN.md §4), printing paper-vs-measured verdict tables. EXPERIMENTS.md
// records a full run.
//
// Usage:
//
//	experiments [-only E9] [-quick]
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/cnf"
	"repro/internal/datalog"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/homeo"
	"repro/internal/logic"
	"repro/internal/magic"
	"repro/internal/pebble"
	"repro/internal/plan"
	"repro/internal/structure"
	"repro/internal/switchgraph"
)

var (
	only  = flag.String("only", "", "run a single experiment, e.g. E9")
	quick = flag.Bool("quick", false, "smaller instances for a fast pass")
)

type experiment struct {
	ID    string
	Paper string // the paper item reproduced
	Run   func(e *env) []row
}

type row struct {
	Claim    string
	Expected string
	Measured string
	OK       bool
}

type env struct {
	rng   *rand.Rand
	quick bool
}

// mustEval evaluates with DefaultOptions. Experiments whose settings ARE
// the experiment (the E14 ablations, provenance runs) construct their own
// Options explicitly.
func (e *env) mustEval(p *datalog.Program, db *datalog.Database) *datalog.Result {
	res, err := datalog.Eval(p, db, datalog.DefaultOptions)
	if err != nil {
		panic(err)
	}
	return res
}

func main() {
	flag.Parse()
	experiments := []experiment{
		{"E1", "Examples 2.1–2.2: TC and w-avoiding-path programs", runE1},
		{"E2", "Example 4.4: pebble games on paths of different lengths", runE2},
		{"E3", "Example 4.5: disjoint vs crossing paths", runE3},
		{"E4", "Proposition 5.3: polynomial game solver", runE4},
		{"E5", "Theorem 6.1: class C queries in Datalog(≠)", runE5},
		{"E6", "Theorem 6.2: acyclic inputs in Datalog(≠)", runE6},
		{"E7", "Lemma 6.4 / Figure 1: the switch", runE7},
		{"E8", "Section 6.2 / Figures 2–6: the SAT reduction", runE8},
		{"E9", "Theorem 6.6: the lower-bound witness (A_k, B_k)", runE9},
		{"E10", "Section 6.2: k-pebble games on formulas", runE10},
		{"E11", "Theorem 3.6: stage formulas in l+r variables", runE11},
		{"E12", "Corollary 6.8: even-simple-path reduction", runE12},
		{"E13", "FHW dichotomy: pattern classification table", runE13},
		{"E14", "Engine ablation: semi-naive vs naive, indexes", runE14},
		{"E15", "Theorem 6.7: H2 and H3 lower bounds via quotients", runE15},
		{"E16", "Lemma 6.3: lower-bound transfer to superpatterns", runE16},
		{"E17", "Example 3.3: two-variable cardinality on total orders", runE17},
		{"E18", "Corollary 6.8: game simulation through subdivision", runE18},
		{"E19", "Proposition 4.2: definability as ⪯k-closure", runE19},
		{"E20", "Theorem 5.5: pattern-based queries decided by games", runE20},
		{"E21", "Engine extensions: top-down tabling, provenance, containment", runE21},
		{"E22", "FHW Lemma 4: single-player vs two-player acyclic games", runE22},
		// E23–E25 are the performance experiments recorded from the
		// benchmark harness (bench_test.go); their tables live in
		// EXPERIMENTS.md.
		{"E26", "Goal-directed magic sets vs saturation vs top-down tabling", runE26},
		{"E27", "Cost-based join planner: order search, pruning, plan cache", runE27},
	}
	e := &env{
		rng:   rand.New(rand.NewSource(2026)),
		quick: *quick,
	}
	allOK := true
	for _, ex := range experiments {
		if *only != "" && ex.ID != *only {
			continue
		}
		fmt.Printf("=== %s — %s ===\n", ex.ID, ex.Paper)
		start := time.Now()
		rows := ex.Run(e)
		for _, r := range rows {
			status := "ok"
			if !r.OK {
				status = "MISMATCH"
				allOK = false
			}
			fmt.Printf("  [%-8s] %-58s expected %-28s measured %s\n",
				status, r.Claim, r.Expected, r.Measured)
		}
		fmt.Printf("  (%.2fs)\n\n", time.Since(start).Seconds())
	}
	if !allOK {
		fmt.Println("SOME EXPERIMENTS MISMATCHED")
		os.Exit(1)
	}
	fmt.Println("all experiments reproduce the paper's claims")
}

func check(claim, expected, measured string) row {
	return row{Claim: claim, Expected: expected, Measured: measured, OK: expected == measured}
}

func boolRow(claim string, expected, measured bool) row {
	return check(claim, fmt.Sprint(expected), fmt.Sprint(measured))
}

func runE1(e *env) []row {
	var rows []row
	mismatches := 0
	trials := 30
	for t := 0; t < trials; t++ {
		g := graph.Random(8, 0.2, e.rng)
		res := e.mustEval(datalog.TransitiveClosureProgram(), datalog.FromGraph(g))
		if res.IDB["S"].Size() != len(g.TransitiveClosure()) {
			mismatches++
		}
	}
	rows = append(rows, check(
		fmt.Sprintf("TC program ≡ graph closure on %d random graphs", trials),
		"0 mismatches", fmt.Sprintf("%d mismatches", mismatches)))

	mismatches = 0
	for t := 0; t < 10; t++ {
		g := graph.Random(6, 0.25, e.rng)
		res := e.mustEval(datalog.AvoidingPathProgram(), datalog.FromGraph(g))
		for x := 0; x < 6; x++ {
			for y := 0; y < 6; y++ {
				for w := 0; w < 6; w++ {
					want := false
					if w != x && w != y {
						for _, z := range g.Out(x) {
							if z == y || (z != w && g.ReachableAvoiding(z, y, map[int]bool{w: true})) {
								want = true
								break
							}
						}
					}
					if res.IDB["T"].Has(datalog.Tuple{x, y, w}) != want {
						mismatches++
					}
				}
			}
		}
	}
	rows = append(rows, check("w-avoiding-path program ≡ filtered BFS (10 graphs × all triples)",
		"0 mismatches", fmt.Sprintf("%d mismatches", mismatches)))
	return rows
}

func runE2(e *env) []row {
	short := structure.FromGraph(graph.DirectedPath(4), nil, nil)
	long := structure.FromGraph(graph.DirectedPath(7), nil, nil)
	var rows []row
	for k := 1; k <= 3; k++ {
		w := pebble.NewGame(short, long, k).MustSolve()
		rows = append(rows, check(fmt.Sprintf("II wins ∃%d-game on (short path, long path)", k),
			"Player II", w.String()))
	}
	w := pebble.NewGame(long, short, 2).MustSolve()
	rows = append(rows, check("I wins ∃2-game on (long path, short path)", "Player I", w.String()))
	return rows
}

func runE3(e *env) []row {
	ga, _, _, _, _ := graph.TwoDisjointPathsGraph(4, 4)
	gb, _, _, _, _ := graph.CrossingPathsGraph(2)
	a := structure.FromGraph(ga, nil, nil)
	b := structure.FromGraph(gb, nil, nil)
	var rows []row
	rows = append(rows, check("I wins ∃3-game on (disjoint, crossing) [paper's claim]",
		"Player I", pebble.NewGame(a, b, 3).MustSolve().String()))
	rows = append(rows, check("I wins even the ∃2-game [sharper than the paper]",
		"Player I", pebble.NewGame(a, b, 2).MustSolve().String()))
	rows = append(rows, check("II wins ∃1-game (one pebble can always relocate)",
		"Player II", pebble.NewGame(a, b, 1).MustSolve().String()))
	return rows
}

func runE4(e *env) []row {
	// Scaling: solver time grows polynomially with n at fixed k; report
	// times for doubling sizes.
	var rows []row
	sizes := []int{4, 8, 16}
	if e.quick {
		sizes = []int{4, 8}
	}
	var times []float64
	for _, n := range sizes {
		a := structure.FromGraph(graph.DirectedPath(n), nil, nil)
		b := structure.FromGraph(graph.DirectedPath(n+2), nil, nil)
		start := time.Now()
		w := pebble.NewGame(a, b, 2).MustSolve()
		el := time.Since(start).Seconds()
		times = append(times, el)
		rows = append(rows, check(fmt.Sprintf("n=%d: II wins (short into long), %.3fs", n, el),
			"Player II", w.String()))
	}
	// Polynomial check: the solver enumerates ~(n_A·n_B)^k positions, so
	// at k=2 runtime should scale like a degree-4..6 polynomial in n.
	// The quadrupling from n=4 to n=16 must then stay within 4^6 = 4096;
	// a game-tree search without the Prop. 5.3 structure would blow past
	// this by many orders of magnitude.
	if len(times) >= 2 && times[0] > 0 {
		ratio := times[len(times)-1] / times[0]
		rows = append(rows, boolRow(
			fmt.Sprintf("time(n=%d)/time(n=%d) = %.1f consistent with a degree ≤ 6 polynomial",
				sizes[len(sizes)-1], sizes[0], ratio),
			true, ratio < 4096))
	}
	return rows
}

func runE5(e *env) []row {
	var rows []row
	trials := 15
	if e.quick {
		trials = 5
	}
	mismatch := 0
	checked := 0
	prog := datalog.QklPrograms(2, 0)
	for t := 0; t < trials; t++ {
		g := graph.Random(6, 0.3, e.rng)
		res := e.mustEval(prog, datalog.FromGraph(g))
		for s := 0; s < 6; s++ {
			for s1 := 0; s1 < 6; s1++ {
				for s2 := s1 + 1; s2 < 6; s2++ {
					if s == s1 || s == s2 {
						continue
					}
					checked++
					got := res.IDB["Q2"].Has(datalog.Tuple{s, s1, s2})
					want := flow.FanOutCount(g, s, []int{s1, s2}) == 2
					if got != want {
						mismatch++
					}
				}
			}
		}
	}
	rows = append(rows, check(
		fmt.Sprintf("Q2 Datalog(≠) program ≡ flow oracle (%d triples)", checked),
		"0 mismatches", fmt.Sprintf("%d mismatches", mismatch)))

	// Star pattern solved three ways.
	agree := true
	for t := 0; t < 10; t++ {
		g := graph.Random(6, 0.3, e.rng)
		nodes := e.rng.Perm(6)[:3]
		inst, err := homeo.NewInstance(homeo.Star(2, false), g, nodes)
		if err != nil {
			continue
		}
		a, _ := homeo.SolveClassC(homeo.Star(2, false), inst)
		b, _ := homeo.SolveClassCDatalog(homeo.Star(2, false), inst)
		c := homeo.Star(2, false).BruteForce(inst)
		if a != b || b != c {
			agree = false
		}
	}
	rows = append(rows, boolRow("flow ≡ Datalog(≠) ≡ brute force on out-star instances", true, agree))
	return rows
}

func runE6(e *env) []row {
	var rows []row
	trials := 30
	if e.quick {
		trials = 10
	}
	mismatchGame, mismatchDL := 0, 0
	for t := 0; t < trials; t++ {
		g := graph.RandomDAG(8, 0.3, e.rng)
		perm := e.rng.Perm(8)
		inst, err := homeo.NewInstance(homeo.H1(), g, perm[:4])
		if err != nil {
			continue
		}
		game, err := homeo.SolveAcyclic(homeo.H1(), inst)
		if err != nil {
			continue
		}
		brute := homeo.H1().BruteForce(inst)
		if game != brute {
			mismatchGame++
		}
		prog := datalog.TwoDisjointPathsAcyclicProgram(perm[0], perm[1], perm[2], perm[3])
		res := e.mustEval(prog, datalog.FromGraph(g))
		if res.IDB["D"].Has(datalog.Tuple{perm[0], perm[2]}) != brute {
			mismatchDL++
		}
	}
	rows = append(rows,
		check(fmt.Sprintf("acyclic game ≡ brute force (%d DAGs)", trials),
			"0 mismatches", fmt.Sprintf("%d mismatches", mismatchGame)),
		check(fmt.Sprintf("D(x,y) Datalog(≠) program ≡ brute force (%d DAGs)", trials),
			"0 mismatches", fmt.Sprintf("%d mismatches", mismatchDL)))
	return rows
}

func runE7(e *env) []row {
	g, sw := switchgraph.StandaloneSwitch()
	paths := switchgraph.PassingPaths(g)
	var rows []row
	rows = append(rows, check("switch has 8 terminals + 24 internal nodes", "32", fmt.Sprint(g.N())))
	rows = append(rows, boolRow("more passing paths than the 6 distinguished ones", true, len(paths) > 6))
	// Count disjoint (a-ending, b-starting) pairs — Lemma 6.4 says exactly
	// the p-pair and the q-pair qualify.
	pairs := 0
	for _, pa := range paths {
		if pa[len(pa)-1] != sw.Node("a") {
			continue
		}
		for _, pb := range paths {
			if pb[0] != sw.Node("b") {
				continue
			}
			if graph.NodeDisjoint(pa, pb, false) {
				pairs++
			}
		}
	}
	rows = append(rows, check("disjoint pairs (…→a, b→…) through the switch", "2", fmt.Sprint(pairs)))
	return rows
}

func runE8(e *env) []row {
	var rows []row
	corpus := []struct {
		name string
		f    *cnf.Formula
	}{
		{"Figure 5: x1 ∨ ~x1", cnf.New(cnf.Clause{1, -1})},
		{"Figure 6: x1 ∧ ~x1", cnf.New(cnf.Clause{1}, cnf.Clause{-1})},
		{"φ_1 (complete)", cnf.Complete(1)},
		{"(x1∨x2)(~x1∨x2)", cnf.New(cnf.Clause{1, 2}, cnf.Clause{-1, 2})},
		{"(x1∨x2)(~x1)(~x2)", cnf.New(cnf.Clause{1, 2}, cnf.Clause{-1}, cnf.Clause{-2})},
	}
	for _, tc := range corpus {
		_, sat := tc.f.Satisfiable()
		c := switchgraph.Build(tc.f)
		g, s1, s2, s3, s4 := c.TwoDisjointPathsQuery()
		paths := g.TwoDisjointPaths(s1, s2, s3, s4)
		rows = append(rows, check(
			fmt.Sprintf("%s (%s): SAT ⟺ 2 disjoint paths", tc.name, c.Stats()),
			fmt.Sprint(sat), fmt.Sprint(paths)))
	}
	return rows
}

func runE9(e *env) []row {
	var rows []row
	maxK := 3
	if e.quick {
		maxK = 2
	}
	for k := 1; k <= maxK; k++ {
		lb := homeo.NewLowerBound(k)
		rows = append(rows, boolRow(
			fmt.Sprintf("k=%d: A_k satisfies two-disjoint-paths", k),
			true, lb.A.TwoDisjointPaths(lb.W1, lb.W2, lb.W3, lb.W4)))
		if k == 1 {
			g, s1, s2, s3, s4 := lb.Construction.TwoDisjointPathsQuery()
			rows = append(rows, boolRow("k=1: B_1 fails the query (brute force)",
				false, g.TwoDisjointPaths(s1, s2, s3, s4)))
		} else {
			_, sat := cnf.Complete(k).Satisfiable()
			rows = append(rows, boolRow(
				fmt.Sprintf("k=%d: φ_k unsatisfiable ⇒ B_k fails the query (E8 reduction)", k),
				false, sat))
		}
		// Player II's explicit strategy survives adversarial schedules.
		a, b := lb.Structures()
		dup := homeo.NewDuplicator(lb)
		ref := pebble.NewReferee(a, b, k)
		losses := 0
		trials := 40
		if e.quick {
			trials = 10
		}
		for t := 0; t < trials; t++ {
			if err := ref.Play(dup, pebble.RandomSchedule(e.rng, a.N, k, 150)); err != nil {
				losses++
			}
		}
		rows = append(rows, check(
			fmt.Sprintf("k=%d: paper strategy survives %d random %d-pebble schedules (|A|=%d,|B|=%d)",
				k, trials, k, a.N, b.N),
			"0 losses", fmt.Sprintf("%d losses", losses)))
		if k == 1 {
			w := func() string {
				g := pebble.NewGame(a, b, 1)
				g.MaxPositions = 20_000_000
				res, err := g.Solve()
				if err != nil {
					return err.Error()
				}
				return res.String()
			}()
			rows = append(rows, check("k=1: exact solver confirms II wins", "Player II", w))
		}
	}
	return rows
}

func runE10(e *env) []row {
	var rows []row
	maxK := 3
	if e.quick {
		maxK = 2
	}
	for k := 1; k <= maxK; k++ {
		f := cnf.Complete(k)
		rows = append(rows, check(
			fmt.Sprintf("II wins the %d-pebble formula game on φ_%d", k, k),
			"true", fmt.Sprint(cnf.NewFormulaGame(f, k).PlayerIIWins())))
		rows = append(rows, check(
			fmt.Sprintf("I wins the %d-pebble formula game on φ_%d", k+1, k),
			"false", fmt.Sprint(cnf.NewFormulaGame(f, k+1).PlayerIIWins())))
	}
	rows = append(rows, check("I wins the 2-pebble game on x1∧…∧x4∧(~x1∨…∨~x4)",
		"false", fmt.Sprint(cnf.NewFormulaGame(cnf.Chain(4), 2).PlayerIIWins())))
	return rows
}

func runE11(e *env) []row {
	var rows []row
	for _, p := range []*datalog.Program{
		datalog.TransitiveClosureProgram(),
		datalog.AvoidingPathProgram(),
	} {
		tr, err := logic.NewTranslator(p)
		if err != nil {
			rows = append(rows, check("translator builds", "ok", err.Error()))
			continue
		}
		bound := tr.VariableBound()
		worst := 0
		for n := 1; n <= 6; n++ {
			if v := len(logic.Variables(tr.Stage(p.Goal, n))); v > worst {
				worst = v
			}
		}
		rows = append(rows, boolRow(
			fmt.Sprintf("%s: max stage variables %d ≤ bound l+r = %d, constant in n", p.Goal, worst, bound),
			true, worst <= bound))
		// Agreement with engine stages on a random structure.
		g := graph.Random(5, 0.3, e.rng)
		res, _ := datalog.Eval(p, datalog.FromGraph(g), datalog.Options{SemiNaive: false, UseIndexes: true})
		s := structure.FromGraph(g, nil, nil)
		n := res.Rounds
		f := tr.Stage(p.Goal, n)
		hv := tr.HeadVars(p.Goal)
		agree := true
		var rec func(i int, env map[string]int, tup []int)
		rec = func(i int, envv map[string]int, tup []int) {
			if i == len(hv) {
				want := res.IDB[p.Goal].Has(datalog.Tuple(tup))
				if logic.Eval(s, f, envv) != want {
					agree = false
				}
				return
			}
			for x := 0; x < s.N; x++ {
				envv[hv[i]] = x
				rec(i+1, envv, append(tup, x))
				delete(envv, hv[i])
			}
		}
		rec(0, map[string]int{}, nil)
		rows = append(rows, boolRow(
			fmt.Sprintf("%s: φ^%d ≡ engine fixpoint on a random structure", p.Goal, n),
			true, agree))
	}
	return rows
}

func runE12(e *env) []row {
	trials := 25
	if e.quick {
		trials = 8
	}
	mismatch := 0
	for t := 0; t < trials; t++ {
		g := graph.Random(7, 0.25, e.rng)
		perm := e.rng.Perm(7)
		s1, s2, s3, s4 := perm[0], perm[1], perm[2], perm[3]
		want := g.TwoDisjointPaths(s1, s2, s3, s4)
		gs, start, target := homeo.EvenPathReduction(g, s1, s2, s3, s4)
		if homeo.EvenSimplePath(gs, start, target) != want {
			mismatch++
		}
	}
	return []row{check(
		fmt.Sprintf("2-disjoint-paths(G) ⟺ even-simple-path(G*) on %d random graphs", trials),
		"0 mismatches", fmt.Sprintf("%d mismatches", mismatch))}
}

func runE13(e *env) []row {
	var rows []row
	table := []struct {
		name string
		p    homeo.Pattern
		inC  bool
	}{
		{"single edge", homeo.Star(1, false), true},
		{"out-star k=2", homeo.Star(2, false), true},
		{"out-star k=3", homeo.Star(3, false), true},
		{"in-star k=2", homeo.InStar(2, false), true},
		{"out-star k=2 + loop", homeo.Star(2, true), true},
		{"H1 (two disjoint edges)", homeo.H1(), false},
		{"H2 (path of length 2)", homeo.H2(), false},
		{"H3 (2-cycle)", homeo.H3(), false},
	}
	for _, tc := range table {
		verdict := "NP-complete / not L^ω-expressible"
		if tc.p.InClassC() {
			verdict = "PTIME / Datalog(≠)-expressible"
		}
		want := "NP-complete / not L^ω-expressible"
		if tc.inC {
			want = "PTIME / Datalog(≠)-expressible"
		}
		rows = append(rows, check(tc.name, want, verdict))
	}
	// Exhaustive coverage: every pattern up to 4 nodes/4 edges lands on
	// the right side of the dichotomy (C̄ ⟺ contains H1/H2/H3, loops
	// allowed in "two disjoint edges").
	bad := 0
	total := 0
	for n := 1; n <= 4; n++ {
		var pairs [][2]int
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				pairs = append(pairs, [2]int{u, v})
			}
		}
		for mask := 1; mask < 1<<len(pairs); mask++ {
			if popcount(mask) > 4 {
				continue
			}
			g := graph.New(n)
			for i, pr := range pairs {
				if mask&(1<<i) != 0 {
					g.AddEdge(pr[0], pr[1])
				}
			}
			p := homeo.Pattern{G: g}
			if p.Validate() != nil {
				continue
			}
			total++
			witness := hasTwoDisjointEdges(g) ||
				p.ContainsSubpattern(homeo.H2()) || p.ContainsSubpattern(homeo.H3())
			if p.InClassC() == witness {
				bad++
			}
		}
	}
	rows = append(rows, check(
		fmt.Sprintf("dichotomy characterization over %d patterns (≤4 nodes, ≤4 edges)", total),
		"0 exceptions", fmt.Sprintf("%d exceptions", bad)))
	return rows
}

func hasTwoDisjointEdges(g *graph.Graph) bool {
	es := g.Edges()
	for i := range es {
		for j := i + 1; j < len(es); j++ {
			a, b := es[i], es[j]
			if a[0] != b[0] && a[0] != b[1] && a[1] != b[0] && a[1] != b[1] {
				return true
			}
		}
	}
	return false
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		c += x & 1
		x >>= 1
	}
	return c
}

func runE14(e *env) []row {
	var rows []row
	g := graph.DirectedPath(60)
	db := datalog.FromGraph(g)
	p := datalog.TransitiveClosureProgram()
	configs := []struct {
		name string
		opt  datalog.Options
	}{
		{"semi-naive + indexes", datalog.Options{SemiNaive: true, UseIndexes: true}},
		{"semi-naive, no indexes", datalog.Options{SemiNaive: true, UseIndexes: false}},
		{"naive + indexes", datalog.Options{SemiNaive: false, UseIndexes: true}},
	}
	var sizes []int
	var derivs []int
	for _, cfg := range configs {
		start := time.Now()
		res, err := datalog.Eval(p, db.Clone(), cfg.opt)
		if err != nil {
			rows = append(rows, check(cfg.name, "ok", err.Error()))
			continue
		}
		sizes = append(sizes, res.IDB["S"].Size())
		derivs = append(derivs, res.Derivations)
		rows = append(rows, check(
			fmt.Sprintf("%s: %.3fs, %d derivations", cfg.name, time.Since(start).Seconds(), res.Derivations),
			fmt.Sprint(60*59/2), fmt.Sprint(res.IDB["S"].Size())))
	}
	if len(derivs) == 3 {
		rows = append(rows, boolRow(
			fmt.Sprintf("naive rederives more (%d) than semi-naive (%d)", derivs[2], derivs[0]),
			true, derivs[2] > derivs[0]))
	}
	return rows
}

func runE15(e *env) []row {
	var rows []row
	type qb struct {
		name  string
		build func(int) *homeo.QuotientLowerBound
		pat   homeo.Pattern
	}
	for _, tc := range []qb{
		{"H2", homeo.NewLowerBoundH2, homeo.H2()},
		{"H3", homeo.NewLowerBoundH3, homeo.H3()},
	} {
		q := tc.build(1)
		instA, err := homeo.NewInstance(tc.pat, q.AQ, q.AConst)
		if err != nil {
			rows = append(rows, check(tc.name+" instance", "ok", err.Error()))
			continue
		}
		instB, _ := homeo.NewInstance(tc.pat, q.BQ, q.BConst)
		rows = append(rows, boolRow(tc.name+": A' satisfies the query (k=1)", true, tc.pat.BruteForce(instA)))
		rows = append(rows, boolRow(tc.name+": B' fails the query (k=1)", false, tc.pat.BruteForce(instB)))
		a, b := q.Structures()
		g := pebble.Game{A: a, B: b, K: 1, OneToOne: true, MaxPositions: 20_000_000}
		w, err := g.Solve()
		if err != nil {
			rows = append(rows, check(tc.name+": exact 1-pebble game", "Player II", err.Error()))
		} else {
			rows = append(rows, check(tc.name+": exact 1-pebble game", "Player II", w.String()))
		}
		// Strategy at k = 2.
		q2 := tc.build(2)
		a2, b2 := q2.Structures()
		dup := homeo.NewQuotientDuplicator(q2)
		ref := pebble.NewReferee(a2, b2, 2)
		losses := 0
		for trial := 0; trial < 20; trial++ {
			if err := ref.Play(dup, pebble.RandomSchedule(e.rng, a2.N, 2, 120)); err != nil {
				losses++
			}
		}
		rows = append(rows, check(tc.name+": quotient strategy, 20 random 2-pebble schedules",
			"0 losses", fmt.Sprintf("%d losses", losses)))
	}
	return rows
}

func runE16(e *env) []row {
	var rows []row
	// F2 = H1 + edge (1,2): the 3-path superpattern.
	f2g := graph.New(4)
	f2g.AddEdge(0, 1)
	f2g.AddEdge(1, 2)
	f2g.AddEdge(2, 3)
	f2 := homeo.NewPattern(f2g)
	lb := homeo.NewLowerBound(1)
	c := lb.Construction
	g, err := homeo.NewGraft(homeo.H1(), f2, lb.A, c.G,
		[]int{lb.W1, lb.W2, lb.W3, lb.W4}, []int{c.S1, c.S2, c.S3, c.S4})
	if err != nil {
		return []row{check("graft builds", "ok", err.Error())}
	}
	instA, _ := homeo.NewInstance(f2, g.AG, g.AConst)
	instB, _ := homeo.NewInstance(f2, g.BG, g.BConst)
	rows = append(rows, boolRow("grafted A' satisfies the F2 query", true, f2.BruteForce(instA)))
	rows = append(rows, boolRow("grafted B' fails the F2 query", false, f2.BruteForce(instB)))
	a, b := g.Structures()
	game := pebble.Game{A: a, B: b, K: 1, OneToOne: true, MaxPositions: 20_000_000}
	w, err := game.Solve()
	if err != nil {
		rows = append(rows, check("exact 1-pebble game on the graft", "Player II", err.Error()))
	} else {
		rows = append(rows, check("exact 1-pebble game on the graft", "Player II", w.String()))
	}
	lb2 := homeo.NewLowerBound(2)
	c2 := lb2.Construction
	g2, err := homeo.NewGraft(homeo.H1(), f2, lb2.A, c2.G,
		[]int{lb2.W1, lb2.W2, lb2.W3, lb2.W4}, []int{c2.S1, c2.S2, c2.S3, c2.S4})
	if err != nil {
		return append(rows, check("graft k=2 builds", "ok", err.Error()))
	}
	a2, b2 := g2.Structures()
	dup := &homeo.GraftDuplicator{G: g2, Inner: homeo.NewDuplicator(lb2)}
	ref := pebble.NewReferee(a2, b2, 2)
	losses := 0
	for trial := 0; trial < 20; trial++ {
		if err := ref.Play(dup, pebble.RandomSchedule(e.rng, a2.N, 2, 120)); err != nil {
			losses++
		}
	}
	rows = append(rows, check("extended strategy, 20 random 2-pebble schedules",
		"0 losses", fmt.Sprintf("%d losses", losses)))
	return rows
}

func runE17(e *env) []row {
	var rows []row
	// τ_n on m-element orders, all small cases.
	bad := 0
	for m := 0; m <= 7; m++ {
		s := logic.TotalOrder(m)
		for n := 0; n <= 8; n++ {
			if logic.AtLeast(s, n) != (m >= n) {
				bad++
			}
		}
	}
	rows = append(rows, check("τ_n ≡ (|order| >= n) over all m,n <= 8", "0 mismatches",
		fmt.Sprintf("%d mismatches", bad)))
	worst := 0
	for n := 1; n <= 10; n++ {
		if v := len(logic.Variables(logic.AtLeastFormula(n))); v > worst {
			worst = v
		}
	}
	rows = append(rows, check("max distinct variables across τ_1..τ_10", "2", fmt.Sprint(worst)))
	evenOK := true
	for m := 0; m <= 8; m++ {
		if logic.CardinalityIn(logic.TotalOrder(m), func(n int) bool { return n%2 == 0 }) != (m%2 == 0) {
			evenOK = false
		}
	}
	rows = append(rows, boolRow("even-cardinality decided through τ_n sentences", true, evenOK))
	return rows
}

func runE18(e *env) []row {
	var rows []row
	ga, a1, a2, a3, a4 := graph.TwoDisjointPathsGraph(2, 2)
	gb := ga.Clone()
	extra := gb.AddNode()
	gb.AddEdge(extra, gb.AddNode())
	subA := homeo.NewSubdivision(ga, a1, a2, a3, a4)
	subB := homeo.NewSubdivision(gb, a1, a2, a3, a4)
	h := map[int]int{}
	for v := 0; v < ga.N(); v++ {
		h[v] = v
	}
	dup := homeo.NewSubdivisionDuplicator(subA, subB, &pebble.EmbeddingDuplicator{H: h})
	aStar := structure.FromGraph(subA.Star, []string{"s1", "t"}, []int{subA.Start, subA.Target})
	bStar := structure.FromGraph(subB.Star, []string{"s1", "t"}, []int{subB.Start, subB.Target})
	losses := 0
	for _, k := range []int{1, 2} {
		ref := pebble.NewReferee(aStar, bStar, k)
		for trial := 0; trial < 20; trial++ {
			if err := ref.Play(dup, pebble.RandomSchedule(e.rng, aStar.N, k, 80)); err != nil {
				losses++
			}
		}
	}
	rows = append(rows, check("lifted strategy survives 40 schedules on (A*, B*)",
		"0 losses", fmt.Sprintf("%d losses", losses)))
	w, err := pebble.NewGame(aStar, bStar, 2).Solve()
	if err != nil {
		rows = append(rows, check("exact 2-pebble game on (A*, B*)", "Player II", err.Error()))
	} else {
		rows = append(rows, check("exact 2-pebble game on (A*, B*)", "Player II", w.String()))
	}
	// Parity bookkeeping of the reduction.
	okParity := homeo.EvenSimplePath(subA.Star, subA.Start, subA.Target) ==
		ga.TwoDisjointPaths(a1, a2, a3, a4)
	rows = append(rows, boolRow("parity: 2 disjoint paths in A ⟺ even simple path in A*", true, okParity))
	return rows
}

func runE19(e *env) []row {
	var rows []row
	var fam []*structure.Structure
	for _, n := range []int{2, 3, 4, 5, 6} {
		fam = append(fam, structure.FromGraph(graph.DirectedPath(n), nil, nil))
	}
	// Existential positive query: closed under ⪯² — no violation.
	v, err := pebble.CheckDefinability(2, fam, func(s *structure.Structure) bool {
		return structure.ToGraph(s).LongestPathLen() >= 3
	})
	if err != nil {
		return []row{check("closure check runs", "ok", err.Error())}
	}
	rows = append(rows, boolRow("'path of length >= 3' respects ⪯²-closure (definable)", true, v == nil))
	// Non-monotone query: violated — hence not L²-definable (Prop 4.2).
	v, err = pebble.CheckDefinability(2, fam, func(s *structure.Structure) bool {
		return s.Rel("E").Size() <= 3
	})
	if err != nil {
		return append(rows, check("closure check runs", "ok", err.Error()))
	}
	rows = append(rows, boolRow("'at most 3 edges' violates ⪯²-closure (not L²-definable)", true, v != nil))
	// Parity (Section 3's non-example).
	v, err = pebble.CheckDefinability(2, fam, func(s *structure.Structure) bool { return s.N%2 == 0 })
	if err != nil {
		return append(rows, check("closure check runs", "ok", err.Error()))
	}
	rows = append(rows, boolRow("parity query violates ⪯²-closure", true, v != nil))
	return rows
}

func runE20(e *env) []row {
	var rows []row
	// Theorem 5.5 positive direction: reachability is pattern-based AND in
	// L³, so the game procedure at k=3 decides it exactly.
	var inputs []*structure.Structure
	for trial := 0; trial < 10; trial++ {
		g := graph.Random(5, 0.25, e.rng)
		inputs = append(inputs, structure.FromGraph(g, []string{"s", "t"}, []int{0, 4}))
	}
	dis, err := homeo.GameVsTruth(homeo.TransitiveClosureQuery{}, inputs, 3)
	if err != nil {
		return []row{check("game procedure runs", "ok", err.Error())}
	}
	rows = append(rows, check("TC decided by the k=3 game procedure on 10 random inputs",
		"0 disagreements", fmt.Sprintf("%d disagreements", dis)))
	// Soundness direction for the NP-complete even-simple-path query: the
	// game can only over-approximate (game=false ⇒ truth=false).
	sound := true
	for _, b := range inputs {
		game, err := homeo.DecideByGame(homeo.EvenSimplePathQuery{}, b, 2)
		if err != nil {
			return append(rows, check("even-path game runs", "ok", err.Error()))
		}
		if !game && (homeo.EvenSimplePathQuery{}).Holds(b) {
			sound = false
		}
	}
	rows = append(rows, boolRow("even-simple-path: game=false ⇒ query false (Prop 5.4)", true, sound))
	return rows
}

func runE21(e *env) []row {
	var rows []row
	// Top-down tabled engine agrees with bottom-up saturation.
	mismatch := 0
	for trial := 0; trial < 10; trial++ {
		g := graph.Random(6, 0.3, e.rng)
		p := datalog.AvoidingPathProgram()
		bu := e.mustEval(p, datalog.FromGraph(g))
		td, err := datalog.NewTopDown(p, datalog.FromGraph(g))
		if err != nil {
			return []row{check("top-down builds", "ok", err.Error())}
		}
		answers := td.Ask(datalog.NewGoal("T", 3, nil))
		if len(answers) != bu.IDB["T"].Size() {
			mismatch++
		}
	}
	rows = append(rows, check("top-down ≡ bottom-up on the avoiding-path program (10 graphs)",
		"0 mismatches", fmt.Sprintf("%d mismatches", mismatch)))

	// Provenance: the proof of S(0,n) on a path is exactly the path.
	g := graph.DirectedPath(8)
	p := datalog.TransitiveClosureProgram()
	res, err := datalog.Eval(p, datalog.FromGraph(g),
		datalog.Options{SemiNaive: true, UseIndexes: true, TrackProvenance: true})
	if err != nil {
		return append(rows, check("provenance eval", "ok", err.Error()))
	}
	proof, err := res.Prove(p, "S", datalog.Tuple{0, 7})
	if err != nil {
		return append(rows, check("proof extraction", "ok", err.Error()))
	}
	rows = append(rows, check("witness path extracted from S(0,7)'s proof",
		"7 edges", fmt.Sprintf("%d edges", len(proof.Leaves()))))

	// Containment: the Chandra–Merlin check on a classic pair.
	q2, err := datalog.ParseCQ("P(x) :- E(x,y), E(y,z).")
	if err != nil {
		return append(rows, check("CQ parse", "ok", err.Error()))
	}
	q1, _ := datalog.ParseCQ("P(x) :- E(x,y).")
	c12, _ := q2.ContainedIn(q1)
	c21, _ := q1.ContainedIn(q2)
	rows = append(rows, check("2-step ⊆ 1-step and not conversely",
		"true/false", fmt.Sprintf("%v/%v", c12, c21)))
	return rows
}

func runE22(e *env) []row {
	// On acyclic inputs the single-player game ([FHW80] Lemma 4, which the
	// paper says lives in fixpoint logic but seemingly not Datalog(≠)) and
	// the paper's two-player game (Theorem 6.2, Datalog(≠)-expressible)
	// decide the same queries.
	trials := 40
	if e.quick {
		trials = 10
	}
	mismatch := 0
	checked := 0
	for t := 0; t < trials; t++ {
		g := graph.RandomDAG(8, 0.3, e.rng)
		for _, p := range []homeo.Pattern{homeo.H1(), homeo.H2()} {
			nodes := e.rng.Perm(8)[:p.G.N()]
			inst, err := homeo.NewInstance(p, g, nodes)
			if err != nil {
				continue
			}
			single, err := homeo.NewSinglePlayerGame(p, inst)
			if err != nil {
				continue
			}
			two, err := homeo.NewAcyclicGame(p, inst)
			if err != nil {
				continue
			}
			checked++
			if single.Winnable() != two.PlayerIIWins() {
				mismatch++
			}
		}
	}
	return []row{check(
		fmt.Sprintf("single-player ≡ two-player on %d DAG instances", checked),
		"0 mismatches", fmt.Sprintf("%d mismatches", mismatch))}
}

// runE26 tables goal-directed evaluation (internal/magic) against full
// bottom-up saturation and the top-down tabled engine on the paper's own
// constructions: transitive closure, same-generation, and the Theorem
// 6.1 disjoint-paths family at fixed (source, sink) bindings. Three
// things must hold: the three engines agree on every bound query, the
// magic rewrite passes datalog.Validate, and on the Theorem 6.1 program
// with both endpoints bound the rewrite derives strictly fewer facts
// than saturation (the demand restriction the rewrite exists for — the
// wall-clock side of that claim is BenchmarkE26_* / BENCH_magic.json).
func runE26(e *env) []row {
	var rows []row
	mopts := magic.Options{Eval: datalog.DefaultOptions}
	totalFacts := func(res *datalog.Result) int {
		n := 0
		for _, rel := range res.IDB {
			n += rel.Size()
		}
		return n
	}
	magicFacts := func(st magic.GoalStats) int {
		return st.DemandFacts + st.SupFacts + st.AnswerFacts
	}
	// filtered restricts a saturation relation to the goal's binding.
	filtered := func(res *datalog.Result, g datalog.Goal) []datalog.Tuple {
		var out []datalog.Tuple
		for _, t := range res.IDB[g.Pred].Tuples() {
			ok := true
			for i, b := range g.Bound {
				if b && t[i] != g.Value[i] {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, t)
			}
		}
		return out
	}
	sameSet := func(a, b []datalog.Tuple) bool {
		if len(a) != len(b) {
			return false
		}
		seen := map[string]int{}
		for _, t := range a {
			seen[t.String()]++
		}
		for _, t := range b {
			if seen[t.String()]--; seen[t.String()] < 0 {
				return false
			}
		}
		return true
	}

	// Random graphs × random bindings on TC, same-generation and Q2:
	// magic ≡ saturation-filtered ≡ top-down, and every rewrite validates.
	trials := 12
	if e.quick {
		trials = 4
	}
	mismatch, invalid, checked := 0, 0, 0
	for t := 0; t < trials; t++ {
		g := graph.Random(8, 0.3, e.rng)
		db := datalog.FromGraph(g)
		type tc struct {
			prog *datalog.Program
			goal datalog.Goal
		}
		cases := []tc{
			{datalog.TransitiveClosureProgram(), datalog.NewGoal("S", 2, map[int]int{0: e.rng.Intn(8)})},
			{datalog.TransitiveClosureProgram(), datalog.NewGoal("S", 2, map[int]int{0: e.rng.Intn(8), 1: e.rng.Intn(8)})},
			{datalog.QklPrograms(2, 0), datalog.NewGoal("Q2", 3, map[int]int{0: e.rng.Intn(8), 1: e.rng.Intn(8), 2: e.rng.Intn(8)})},
		}
		for _, c := range cases {
			checked++
			gr, err := magic.EvalGoal(context.Background(), c.prog, db.Clone(), c.goal, mopts)
			if err != nil {
				return append(rows, check("EvalGoal runs", "ok", err.Error()))
			}
			if err := datalog.Validate(gr.Rewrite.Program); err != nil {
				invalid++
			}
			full, err := datalog.Eval(c.prog, db.Clone(), datalog.DefaultOptions)
			if err != nil {
				return append(rows, check("saturation runs", "ok", err.Error()))
			}
			td, err := datalog.NewTopDown(c.prog, db.Clone())
			if err != nil {
				return append(rows, check("top-down builds", "ok", err.Error()))
			}
			if !sameSet(gr.Answers, filtered(full, c.goal)) || !sameSet(gr.Answers, td.Ask(c.goal)) {
				mismatch++
			}
		}
	}
	rows = append(rows, check(
		fmt.Sprintf("magic ≡ saturation ≡ top-down on %d bound queries", checked),
		"0 mismatches", fmt.Sprintf("%d mismatches", mismatch)))
	rows = append(rows, check("every magic rewrite passes Validate",
		"0 invalid", fmt.Sprintf("%d invalid", invalid)))

	// Same-generation with the first argument bound — the classic magic-set
	// demonstration workload.
	n := 24
	if e.quick {
		n = 10
	}
	sg := datalog.SameGenerationProgram()
	sgdb := datalog.NewDatabase(n)
	for i := 0; i+1 < n/2; i++ {
		sgdb.AddFact("Up", i, i+1)
		sgdb.AddFact("Down", i+1, i)
	}
	sgdb.AddFact("Flat", n/2-1, n/2-1)
	sgGoal := datalog.NewGoal("SG", 2, map[int]int{0: 0})
	sgRes, err := magic.EvalGoal(context.Background(), sg, sgdb.Clone(), sgGoal, mopts)
	if err != nil {
		return append(rows, check("same-generation EvalGoal", "ok", err.Error()))
	}
	sgFull := e.mustEval(sg, sgdb.Clone())
	rows = append(rows, boolRow("SG(0,_) magic answers = saturation restricted",
		true, sameSet(sgRes.Answers, filtered(sgFull, sgGoal))))

	// Theorem 6.1 Q2 with source and both sinks bound: the demand
	// restriction must derive strictly fewer facts than saturating the
	// whole inductive family.
	qn := 12
	if e.quick {
		qn = 8
	}
	qg := graph.Random(qn, 0.3, e.rng)
	qdb := datalog.FromGraph(qg)
	qprog := datalog.QklPrograms(2, 0)
	qfull := e.mustEval(qprog, qdb.Clone())
	q2 := qfull.IDB["Q2"].Tuples()
	if len(q2) == 0 {
		return append(rows, check("Q2 nonempty on the random graph", "nonempty", "empty"))
	}
	pick := q2[len(q2)/2]
	qGoal := datalog.NewGoal("Q2", 3, map[int]int{0: pick[0], 1: pick[1], 2: pick[2]})
	qres, err := magic.EvalGoal(context.Background(), qprog, qdb.Clone(), qGoal, mopts)
	if err != nil {
		return append(rows, check("Q2 EvalGoal", "ok", err.Error()))
	}
	rows = append(rows, boolRow(
		fmt.Sprintf("Q2^bbb goal %s answered positively", qGoal.String()),
		true, len(qres.Answers) == 1))
	rows = append(rows, check(
		"Q2^bbb magic derives strictly fewer facts than saturation",
		"fewer", func() string {
			m, s := magicFacts(qres.Stats), totalFacts(qfull)
			if m < s {
				return "fewer"
			}
			return fmt.Sprintf("%d ≥ %d", m, s)
		}()))
	rows = append(rows, check(
		fmt.Sprintf("Q2 demand set (%d facts) under a third of saturation (%d facts)",
			magicFacts(qres.Stats), totalFacts(qfull)),
		"true", fmt.Sprint(magicFacts(qres.Stats)*3 < totalFacts(qfull))))

	// Theorem 6.2's acyclic disjoint-paths program D with both arguments
	// bound: D(s1,s2) asks for the two specific disjoint paths.
	dag := graph.RandomDAG(10, 0.3, e.rng)
	dprog := datalog.TwoDisjointPathsAcyclicProgram(0, 8, 1, 9)
	ddb := datalog.FromGraph(dag)
	dGoal := datalog.NewGoal("D", 2, map[int]int{0: 0, 1: 1})
	dres, err := magic.EvalGoal(context.Background(), dprog, ddb.Clone(), dGoal, mopts)
	if err != nil {
		return append(rows, check("D EvalGoal", "ok", err.Error()))
	}
	dfull := e.mustEval(dprog, ddb.Clone())
	rows = append(rows, boolRow("D(0,1) magic = saturation restricted (constraint-heavy rules)",
		true, sameSet(dres.Answers, filtered(dfull, dGoal))))
	return rows
}

// runE27 checks the cost-based join planner (internal/plan, DESIGN.md
// §11) for the properties wall-clock numbers can't show: planned
// evaluation is observationally identical to evaluation in the engine's
// default order,
// the adversarially ordered rule is reordered to anchor on the tiny
// relation, the containment pre-pass drops subsumed rules and redundant
// atoms, and the plan cache keys on (program, stats epoch) — hitting
// across small data changes, missing after big ones. The wall-clock
// side (≥2x on the adversarial join, ~0-cost cache hits) is
// BenchmarkE27_* / BENCH_plan.json.
func runE27(e *env) []row {
	var rows []row
	pl := plan.New(plan.Config{})

	// Planned ≡ textual across named programs on random graphs (the
	// 330-workload randomized suite lives in internal/plan/quick_test.go;
	// this is the experiment-level spot check).
	progs := []*datalog.Program{
		datalog.TransitiveClosureProgram(),
		datalog.AvoidingPathProgram(),
		datalog.SameGenerationProgram(),
		datalog.QklPrograms(2, 0),
	}
	trials := 16
	if e.quick {
		trials = 6
	}
	mismatch := 0
	for t := 0; t < trials; t++ {
		prog := progs[t%len(progs)]
		db := datalog.FromGraph(graph.Random(8, 0.3, e.rng))
		textual := e.mustEval(prog, db.Clone())
		planned, err := datalog.Eval(prog, db.Clone(), datalog.DefaultOptions.WithPlanner(pl))
		if err != nil {
			return append(rows, check("planned eval runs", "ok", err.Error()))
		}
		for name, rel := range textual.IDB {
			if rel.Size() != planned.IDB[name].Size() {
				mismatch++
				break
			}
		}
		if textual.Rounds != planned.Rounds {
			mismatch++
		}
	}
	rows = append(rows, check(
		fmt.Sprintf("planned ≡ textual on %d named-program workloads", trials),
		"0 mismatches", fmt.Sprintf("%d mismatches", mismatch)))

	// The adversarial join: dense E self-joined twice before a 3-row R.
	// The planner must reorder to anchor on R.
	adv, err := datalog.Parse("P(x,w) :- E(x,y), E(y,z), R(z,w). goal P.")
	if err != nil {
		return append(rows, check("adversarial program parses", "ok", err.Error()))
	}
	advDB := datalog.FromGraph(graph.Random(24, 0.25, e.rng))
	advDB.EnsureRelation("R", 2)
	advDB.AddFact("R", 0, 1)
	advDB.AddFact("R", 2, 3)
	cat := plan.Collect(advDB)
	pp, _ := pl.PlanProgram(adv, cat)
	rp := pp.Rules[0]
	rows = append(rows, boolRow("adversarial rule reordered to anchor on R",
		true, rp.Reordered && len(rp.Steps) == 3 && rp.Steps[0].Atom[0] == 'R'))
	advTextual := e.mustEval(adv, advDB.Clone())
	advPlanned, err := datalog.Eval(adv, advDB.Clone(), datalog.DefaultOptions.WithPlanner(pl))
	if err != nil {
		return append(rows, check("adversarial planned eval runs", "ok", err.Error()))
	}
	rows = append(rows, boolRow("adversarial planned IDB = textual IDB",
		true, advTextual.IDB["P"].Size() == advPlanned.IDB["P"].Size()))

	// Containment pre-pass: an alpha-renamed twin is subsumed, a verbatim
	// duplicate atom is minimized away, and the recursive rule (outside
	// the CQ fragment) passes through untouched.
	red, err := datalog.Parse(
		"S(x,y) :- E(x,y), E(x,y). S(a,b) :- E(a,b). S(x,y) :- E(x,z), S(z,y). goal S.")
	if err != nil {
		return append(rows, check("redundant program parses", "ok", err.Error()))
	}
	before := pl.Counters()
	rpp, _ := pl.PlanProgram(red, cat)
	after := pl.Counters()
	rows = append(rows, check("subsumed twin dropped, recursive rule kept",
		"2 rules, 1 pruned",
		fmt.Sprintf("%d rules, %d pruned", len(rpp.PlannedRules()), len(rpp.Pruned))))
	rows = append(rows, boolRow("duplicate body atom minimized away",
		true, after.AtomsPruned > before.AtomsPruned))
	redTextual := e.mustEval(red, advDB.Clone())
	redPlanned, err := datalog.Eval(red, advDB.Clone(), datalog.DefaultOptions.WithPlanner(pl))
	if err != nil {
		return append(rows, check("pruned eval runs", "ok", err.Error()))
	}
	rows = append(rows, boolRow("pruned program computes the same closure",
		true, redTextual.IDB["S"].Size() == redPlanned.IDB["S"].Size()))

	// Plan cache keying: same program + same epoch hits; one extra tuple
	// keeps the epoch (log2 bucketing); 4x growth of E changes it.
	_, hit := pl.PlanProgram(adv, cat)
	rows = append(rows, boolRow("replanning the same program hits the cache", true, hit))
	small := advDB.Clone()
	small.AddFact("R", 4, 5)
	_, hit = pl.PlanProgram(adv, plan.Collect(small))
	rows = append(rows, boolRow("one-tuple commit keeps the stats epoch (cache hit)", true, hit))
	big := advDB.Clone()
	for i := 0; i < 24; i++ {
		for j := 0; j < 24; j++ {
			big.AddFact("E", i, j)
		}
	}
	_, hit = pl.PlanProgram(adv, plan.Collect(big))
	rows = append(rows, boolRow("4x relation growth changes the epoch (cache miss)", false, hit))
	return rows
}
