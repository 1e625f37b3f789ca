package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// workload is one stationary traffic mix. Its name and why are declared in
// BENCHMARK.json; what it sends is decided here and in gen.go.
type workload struct {
	Name string
	// Clients is the number of request connections, in both loops. With
	// Subscribe, one more connection holds an SSE subscription on tc, for
	// the nproc (2) total every workload uses.
	Clients   int
	Subscribe bool
	// Rate is the open-loop arrival rate, ops per second.
	Rate float64
	// Live workloads commit while they read at the latest version, so the
	// oracle keeps a reference per version.
	Live bool
	// Measured is the op class p50_ms and p95_ms are over.
	Measured func(opKind) bool
	// TraceOps is how many ops of the closed-loop sequence the traced run
	// replays.
	TraceOps int
}

func isRead(k opKind) bool { return k != opCommit }

// Open-loop rates sit near 20-50 % of the seed's closed-loop capacity on the
// 2-core box, generator included (view-read ≈ 2.3k/s, goal-read ≈ 350/s,
// commit-churn ≈ 23/s, mixed ≈ 150/s): busy enough that queueing shows in
// p95, far enough from saturation that no backlog grows. commit-churn's is
// set by the 200-sample rule: openShare × the run's seconds × rate ≥ 200.
var workloads = []*workload{
	{Name: "view-read", Clients: 2, Rate: 500, Measured: isRead, TraceOps: 200},
	{Name: "goal-read", Clients: 2, Rate: 120, Measured: isRead, TraceOps: 200},
	{Name: "commit-churn", Clients: 1, Subscribe: true, Rate: 10.5, Measured: func(k opKind) bool { return k == opCommit }, TraceOps: 60},
	{Name: "mixed", Clients: 2, Rate: 40, Live: true, Measured: isRead, TraceOps: 200},
}

func workloadNamed(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// Phase shares of a run's -seconds; the open loop takes the rest. ISSUE 11
// asked for 3 s + 10 s + 25 s; the time all the runs of an acceptance check
// may take caps a run at 25 s, and the closed loop was shortened first, as
// the issue allows.
const (
	warmShare   = 0.05
	closedShare = 0.15
)

// Validity rules of a run (ISSUE 11): fewer measured open-loop samples, a
// longer backlog at window end, or a later generator, and the run is
// reported invalid.
const (
	minSamples     = 200
	maxBacklogSecs = 1.0 // seconds of arrivals
	maxLateP95Ms   = 1.0
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// timed are the four timing metrics, with the regression bounds ISSUE 11
// gave them. On this sandbox they do not repeat from run to run within the
// quarter the benchmark's contract allows a bound to be (README, "Why the
// timing metrics carry no bound"), so BENCHMARK.json declares them per layer,
// where a metric has no bound, and -compare judges them against these.
var timed = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "p95_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.10},
}

// judged are the metrics a report is read for and -compare gives a verdict
// on: the end-to-end ones, then the timing ones.
func (sp *spec) judged() []metricDef {
	return append(append([]metricDef(nil), sp.EndToEnd...), timed...)
}

// spec is BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(root string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// value is one measured metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a declared metric name to what a run measured.
type metrics map[string]value

// pick returns the values of exactly the declared metrics, failing on one
// the run did not produce: a metric can be dropped from BENCHMARK.json or
// from the code, but not from only one of them.
func (m metrics) pick(defs []metricDef) (metrics, error) {
	out := metrics{}
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", d.Name)
		}
		if v.Unit != d.Unit {
			return nil, fmt.Errorf("metric %s is measured in %s but declared in %s", d.Name, v.Unit, d.Unit)
		}
		out[d.Name] = v
	}
	return out, nil
}
