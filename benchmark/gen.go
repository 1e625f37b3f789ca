package main

import (
	"encoding/binary"
	"math"
	"time"

	"repro/internal/datalog"
)

// Workload generation. The data is fixed and the traffic is seeded.
//
// The data — the set-up graph and the pools of edges the churn commits
// insert — is drawn once, from datasetSeed: a sub-critical random digraph's
// closure size and DRed cost swing by a quarter from one draw to the next
// (measured: 52-87 ms of CPU per churn commit over ten graphs), which would
// drown any regression the benchmark is there to catch.
//
// The traffic is a pure function of (-seed, workload, phase, index): which
// key each goal binds, where each page walk starts, the order ops of
// different kinds interleave in, the order pool edges are committed in, and
// every open-loop due time. Keys and pool edges are dealt by seeded
// permutation, without replacement, so two seeds do the same kinds of work
// in different orders at different instants. Goroutine interleaving can
// change when an op is sent, never what it says; the server sees only
// requests.

// sizing is the common state's shape. fullSize is ISSUE 11's: a
// sub-critical random digraph (mean out-degree 0.79), so the π₂ view is
// ~31k tuples and reach sets are heavy-tailed. Tests run a tiny one.
type sizing struct {
	Universe int // EDB universe {0..Universe-1}
	Edges    int // set-up edges E(u,v), drawn uniformly
}

var fullSize = sizing{Universe: 8192, Edges: 6500}

const (
	setupBatch  = 256 // set-up edges per commit
	pageLimit   = 256 // view-read page size
	streamLimit = 16  // hop2 NDJSON goals stop after this many rows
	churnBatch  = 4   // edges inserted (and deleted) per churn commit
	churnLag    = 8   // a churn commit deletes what the commit this many earlier inserted
)

// The three registered programs: π₂ exactly as Example 2.2 (right-linear),
// a non-recursive two-hop join with ≠ (the only shape internal/stream
// executes), and the Theorem 6.2 program. view is the predicate of the
// maintained view the oracle has a reference for, if it has one.
var programs = []struct{ name, source, view string }{
	{"tc", "S(x, y) :- E(x, y).\nS(x, y) :- E(x, z), S(z, y).\ngoal S.\n", "S"},
	{"hop2", "J(x, y) :- E(x, z), E(z, y), x != y.\ngoal J.\n", "J"},
	{"disj2", datalog.TwoDisjointPathsAcyclicProgram(1, 2, 3, 4).String(), ""},
}

type edge [2]int

// datasetSeed draws the fixed data (the paper's year).
const datasetSeed = 1990

// Draw streams: one per independent quantity, so adding ops to one phase
// never shifts another phase's keys. Each indexed stream leaves room for
// its index (a phase or an op kind).
const (
	streamSetup uint64 = iota + 1
	streamDue
	streamPool = 10 // + phase: the pool's edges (datasetSeed), and their order (-seed)
	streamKeys = 20 // + op kind: the universe's fixed order (datasetSeed); + 4*phase: the pool's order (-seed)
	streamOps  = 40 // + phase: mix order and page positions
)

// Pools. A goal's key and a commit's edges come from a pool that is part of
// the fixed data, dealt in an order -seed decides. The open loop's pool is
// exactly as large as the window's ops of that kind, so every seed's window
// does the same work; a phase that runs by the clock cycles a pool small
// enough to go round more than once, so its work is the same mix too —
// and large enough that a goal never finds its answer still in the
// 256-entry result cache, nor a commit its edge still in the EDB.
const (
	clockKeys    = 1024 // goal keys, per kind
	clockCommits = 32   // commits' worth of edges
)

// Phases of one run; each draws its ops from its own stream.
const (
	phaseWarm = iota
	phaseClosed
	phaseOpen
)

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw returns the i-th value of one stream of the seed.
func draw(seed int64, stream, i uint64) uint64 {
	return splitmix(splitmix(splitmix(uint64(seed))^stream) ^ i)
}

// generator is one seed's inputs for one workload.
type generator struct {
	seed   int64
	size   sizing
	w      *workload
	window time.Duration // the open loop's
	setup  []edge        // the common state's edge list, in commit order
	// Per phase, in the order dealt: the keys of each kind of goal, and the
	// edges commits insert.
	keys [3][opCommit][]int
	pool [3][]edge
}

func newGenerator(seed int64, size sizing, w *workload, window time.Duration) *generator {
	g := &generator{seed: seed, size: size, w: w, window: window, setup: make([]edge, size.Edges)}
	for i := range g.setup {
		g.setup[i] = g.edge(streamSetup, uint64(i))
	}
	var open [opCommit + 1]int // the open loop's ops, by kind
	for i := range g.due() {
		kind, _ := g.kind(phaseOpen, i)
		open[kind]++
	}
	for kind := opGoalTC; kind <= opGoalHop2; kind++ {
		// The phases deal from disjoint stretches of one fixed order of the
		// universe, so none warms the result cache for the next.
		universe := make([]int, size.Universe)
		for i := range universe {
			universe[i] = i
		}
		shuffle(datasetSeed, streamKeys+uint64(kind), universe)
		clock := min(clockKeys, size.Universe/4)
		for phase, n := range [3]int{clock, clock, min(open[kind], size.Universe/2)} {
			keys := append([]int(nil), universe[phase*clock:phase*clock+n]...)
			shuffle(seed, streamKeys+uint64(kind)+4*uint64(phase+1), keys)
			g.keys[phase][kind] = keys
		}
	}
	for phase, n := range [3]int{clockCommits, clockCommits, open[opCommit]} {
		g.pool[phase] = make([]edge, n*churnBatch)
		for i := range g.pool[phase] {
			g.pool[phase][i] = g.edge(streamPool+uint64(phase), uint64(i))
		}
		shuffle(seed, streamPool+uint64(phase), g.pool[phase])
	}
	return g
}

// shuffle is a Fisher-Yates shuffle drawn from one stream of the seed.
func shuffle[T any](seed int64, stream uint64, xs []T) {
	for k := len(xs) - 1; k > 0; k-- {
		j := int(draw(seed, stream, uint64(k)) % uint64(k+1))
		xs[k], xs[j] = xs[j], xs[k]
	}
}

// edge is the i-th edge of one stream of the fixed data.
func (g *generator) edge(stream, i uint64) edge {
	n := uint64(g.size.Universe)
	return edge{int(draw(datasetSeed, stream, 2*i) % n), int(draw(datasetSeed, stream, 2*i+1) % n)}
}

// churn hands out the churn commits in order: churnBatch pool edges in, and
// out go the edges the commit churnLag earlier put in — at first, the tail
// of the set-up graph — so the EDB and every view keep their size for the
// whole run.
type churn struct {
	g    *generator
	ring [][]edge // what the last churnLag commits inserted, oldest first
	done [3]int   // commits handed out, per phase
}

func (g *generator) churn() *churn {
	c := &churn{g: g}
	for at := len(g.setup) - churnLag*churnBatch; at < len(g.setup); at += churnBatch {
		c.ring = append(c.ring, g.setup[at:at+churnBatch])
	}
	return c
}

// next is the phase's next commit.
func (c *churn) next(phase int) (ins, del []edge) {
	pool := c.g.pool[phase]
	ins = make([]edge, churnBatch)
	for k := range ins {
		ins[k] = pool[(c.done[phase]*churnBatch+k)%len(pool)]
	}
	c.done[phase]++
	del = c.ring[0]
	c.ring = append(c.ring[1:], ins)
	return ins, del
}

type opKind uint8

const (
	opPage     opKind = iota // one limit-256 page of the tc or hop2 view
	opGoalTC                 // S(x,_) as JSON
	opGoalHop2               // J(x,_) as NDJSON, limit 16
	opCommit                 // the next churn commit
)

func (k opKind) String() string {
	return [...]string{"page", "goal_tc", "goal_hop2", "commit"}[k]
}

// op is one request before it is resolved against the reference answer.
type op struct {
	Kind opKind
	// Pos (pages) is a position in the walk tc page 0..P-1 then hop2 page
	// 0..Q-1, reduced modulo the walk's length at the version read.
	Pos uint64
	// X (goals) is the bound first argument.
	X int
}

// mixOf is the op kinds of ten consecutive ops: a workload's mix is exact
// in every block of ten, in an order drawn per block, so that no two seeds
// (or two phases) differ in how many commits or streams they happened to
// send — only in where.
func mixOf(name string) [10]opKind {
	switch name {
	case "view-read":
		return [10]opKind{opPage, opPage, opPage, opPage, opPage, opPage, opPage, opPage, opPage, opPage}
	case "goal-read": // 70 % S(x,_) as JSON, 30 % J(x,_) as NDJSON
		return [10]opKind{opGoalTC, opGoalTC, opGoalTC, opGoalTC, opGoalTC, opGoalTC, opGoalTC, opGoalHop2, opGoalHop2, opGoalHop2}
	case "commit-churn":
		return [10]opKind{opCommit, opCommit, opCommit, opCommit, opCommit, opCommit, opCommit, opCommit, opCommit, opCommit}
	default: // mixed, ROADMAP's 8:1:1
		return [10]opKind{opPage, opPage, opPage, opPage, opPage, opPage, opPage, opPage, opCommit, opGoalTC}
	}
}

// kind is the kind of op i of a phase, and how many ops of that kind the
// phase has before it.
func (g *generator) kind(phase, i int) (opKind, int) {
	// Fisher-Yates over the block's mix, drawn from the block's index.
	kinds := mixOf(g.w.Name)
	block := draw(g.seed, streamOps+uint64(phase), uint64(i/10)<<32|1<<31)
	for k := len(kinds) - 1; k > 0; k-- {
		j := int(block % uint64(k+1))
		block /= uint64(k + 1)
		kinds[k], kinds[j] = kinds[j], kinds[k]
	}
	kind := kinds[i%10]
	before, perBlock := 0, 0
	for k, other := range kinds {
		if other == kind {
			perBlock++
			if k < i%10 {
				before++
			}
		}
	}
	return kind, i/10*perBlock + before
}

// op is op i of a phase.
func (g *generator) op(phase, i int) op {
	kind, nth := g.kind(phase, i)
	o := op{Kind: kind}
	stream := streamOps + uint64(phase)
	switch {
	case kind == opPage && g.w.Name == "view-read":
		// A sequential walk from a seeded starting page: consecutive ops
		// are consecutive cursors, as a paginating client sends them.
		o.Pos = draw(g.seed, stream, math.MaxUint64)>>32 + uint64(i)
	case kind == opPage:
		o.Pos = draw(g.seed, stream, uint64(i))
	case kind != opCommit:
		keys := g.keys[phase][kind]
		o.X = keys[nth%len(keys)]
	}
	return o
}

// due is the open-loop schedule: one arrival in each 1/rate slot of the
// window, at a seeded uniform offset into the slot. That is open loop at the
// stated rate with the same number of ops for every seed, and gaps from zero
// to two slots, without a Poisson process's long bursts and lulls, whose
// luck a window of a few hundred arrivals does not average out. Offsets are
// from the open-loop start.
func (g *generator) due() []time.Duration {
	slot := float64(time.Second) / g.w.Rate
	out := make([]time.Duration, int(g.w.Rate*g.window.Seconds()))
	for i := range out {
		u := float64(draw(g.seed, streamDue, uint64(i))>>11) / (1 << 53)
		out[i] = time.Duration((float64(i) + u) * slot)
	}
	return out
}

// bytes serializes the first n ops of every phase with the edges their
// commits insert, and the open-loop due times: the whole of what a seed
// decides, for the determinism test.
func (g *generator) bytes(n int) []byte {
	var b []byte
	put := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	c := g.churn()
	for phase := phaseWarm; phase <= phaseOpen; phase++ {
		for i := 0; i < n; i++ {
			o := g.op(phase, i)
			put(uint64(o.Kind))
			put(o.Pos)
			put(uint64(o.X))
			if o.Kind == opCommit {
				ins, del := c.next(phase)
				for _, e := range append(ins, del...) {
					put(uint64(e[0])<<32 | uint64(e[1]))
				}
			}
		}
	}
	for _, d := range g.due() {
		put(uint64(d))
	}
	return b
}
