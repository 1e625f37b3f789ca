// Command benchmark is the repo's end-to-end benchmark (ISSUE 11): it builds
// cmd/serve, and for each workload starts a fresh durable server, brings it
// to the common state over /v1, drives the workload over HTTP — warm-up,
// closed loop, open loop — checks every answer against its own oracle, and
// prints every metric by name with its unit.
//
// Usage, from anywhere inside a checkout:
//
//	bash benchmark/run.sh [-workload all] [-seed 1] [-seconds N] [-trace 0|1] [-out report.json]
//	bash benchmark/run.sh -compare a.json b.json
//
// (benchmark/run.sh builds this program with the Go build cache inside the
// checkout and runs it with the same arguments; `go run -C benchmark .` does
// the same with the user's own cache.)
//
// -trace 1 adds the traced in-process replay that attributes time to layers
// and writes its spans to benchmark/out/trace.json. The last line of
// standard output is one JSON object {correct, attempted, failed, metrics}:
// the end-to-end metrics of BENCHMARK.json with -trace 0, the per-layer ones
// with -trace 1. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "workload seed: same seed, same inputs")
	seconds := flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 adds the traced in-process replay and reports the per-layer metrics")
	out := flag.String("out", "", "write the JSON report here (what -compare reads)")
	compare := flag.Bool("compare", false, "compare two reports: -compare a.json b.json")
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		return fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		return fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			return fatal(fmt.Errorf("-compare takes two report files"))
		}
		return compareReports(sp, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}

	run := workloads
	if *name != "all" {
		w := workloadNamed(*name)
		if w == nil {
			return fatal(fmt.Errorf("no workload %q", *name))
		}
		run = []*workload{w}
	}
	o := options{seed: *seed, seconds: *seconds, setups: 7, trace: *trace == 1}
	if o.seconds == 0 {
		o.seconds = float64(sp.RunSeconds)
	}

	e := &env{root: root, size: fullSize, traces: map[string][]span{},
		tmp: filepath.Join(root, buildDir, "tmp", fmt.Sprint(os.Getpid()))}
	defer e.cleanup()
	bin, err := buildServe(root)
	if err != nil {
		return fatal(err)
	}
	e.start = func(dir string, universe int) (*server, error) { return startServer(bin, dir, universe) }

	rep := report{Seed: *seed, Seconds: o.seconds, Workloads: map[string]*result{}}
	code := 0
	for _, w := range run {
		res, err := e.runWorkload(w, o)
		if err != nil {
			e.cleanup()
			return fatal(fmt.Errorf("%s: %w", w.Name, err))
		}
		rep.Workloads[w.Name] = res
		printResult(sp, res)
		if !res.Valid || res.Failed > 0 {
			code = 1
		}
	}
	if *out != "" {
		if err := rep.write(*out); err != nil {
			return fatal(err)
		}
	}
	if o.trace {
		if err := e.writeTraces(filepath.Join(root, "benchmark", "out", "trace.json")); err != nil {
			return fatal(err)
		}
	}
	if code != 0 {
		// An invalid or incorrect run prints what it saw, but no result
		// line: nothing downstream should take its numbers.
		return code
	}
	line, err := rep.resultLine(sp, o.trace, *name == "all")
	if err != nil {
		return fatal(err)
	}
	fmt.Println(line)
	return 0
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

// report is the JSON document -out writes and -compare reads.
type report struct {
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Workloads map[string]*result `json:"workloads"`
}

func (rep *report) write(path string) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return writeFile(path, b)
}

func writeFile(path string, b []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// resultLine is the one-line JSON result: exactly the declared end-to-end
// metrics, or with trace exactly the declared per-layer ones. A run of all
// workloads prefixes each metric with its workload.
func (rep *report) resultLine(sp *spec, trace, all bool) (string, error) {
	line := struct {
		Correct   bool    `json:"correct"`
		Attempted int64   `json:"attempted"`
		Failed    int64   `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{Correct: true, Metrics: metrics{}}
	for name, res := range rep.Workloads {
		from, defs := res.EndToEnd, sp.EndToEnd
		if trace {
			from, defs = res.PerLayer, sp.PerLayer
		}
		picked, err := from.pick(defs)
		if err != nil {
			return "", err
		}
		for k, v := range picked {
			if all {
				k = name + "." + k
			}
			line.Metrics[k] = v
		}
		line.Attempted += res.Attempted
		line.Failed += res.Failed
	}
	b, err := json.Marshal(line)
	return string(b), err
}

// printResult prints one workload's metrics by name, with units.
func printResult(sp *spec, res *result) {
	fmt.Printf("== %s  seed %d  %.0f s  attempted %d  failed %d  fail_ratio %.6f\n",
		res.Workload, res.Seed, res.Seconds, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	for _, why := range res.Invalid {
		fmt.Printf("   INVALID: %s\n", why)
	}
	for _, e := range res.Errors {
		fmt.Printf("   FAILED: %s\n", e)
	}
	for _, d := range sp.judged() {
		note := ""
		if d.Name == "p50_ms" || d.Name == "p95_ms" {
			note = fmt.Sprintf("  (%d samples)", res.Samples)
		}
		v, _ := res.metric(d.Name)
		fmt.Printf("   %-34s %14.4f %s%s\n", d.Name, v.Value, d.Unit, note)
	}
	names := make([]string, 0, len(res.PerLayer))
	for name := range res.PerLayer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if slices.ContainsFunc(timed, func(d metricDef) bool { return d.Name == name }) {
			continue // printed above
		}
		fmt.Printf("   %-34s %14.4f %s\n", name, res.PerLayer[name].Value, res.PerLayer[name].Unit)
	}
}
