package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// -compare a.json b.json: one row per workload and metric — the end-to-end
// metrics, against the bounds BENCHMARK.json fixes, then the timing metrics,
// against ISSUE 11's (spec.go, timed) — with both values, the ratio b/a with
// its base, and a verdict:
//
//	ok          b is no worse than a by more than the metric's bound
//	worse       b is worse than a by more than the bound
//	unresolved  no verdict can be given: a side has no valid run of the
//	            workload, or — when a side is several reports, joined by
//	            commas — a's own runs spread (quartile to quartile, as a
//	            share of their median) wider than the bound
//
// Each side's value is the median of its reports. The exit code is 1 when
// any row is worse.

// side is the valid runs of each workload among one side's reports.
type side map[string][]*result

func loadSide(paths string) (side, error) {
	out := side{}
	for _, path := range strings.Split(paths, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(b, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for name, res := range rep.Workloads {
			if res.Valid && res.Failed == 0 {
				out[name] = append(out[name], res)
			}
		}
	}
	return out, nil
}

// values of one metric across a workload's runs, sorted.
func values(runs []*result, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.metric(metric); ok {
			out = append(out, v.Value)
		}
	}
	sort.Float64s(out)
	return out
}

// spread is the distance between the first and third quartile as a share of
// the median — quartiles as Python's statistics.quantiles(values, n=4) gives
// them (its default, exclusive method), which is what the benchmark's own
// acceptance check uses. 0 when there are too few runs to have quartiles.
func spread(sorted []float64) float64 {
	n := len(sorted)
	if n < 4 {
		return 0
	}
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return ratio(quartile(3)-quartile(1), median(sorted))
}

// verdict of b against a for one metric.
func verdict(d metricDef, a, b []float64) string {
	if len(a) == 0 || len(b) == 0 || median(a) == 0 {
		return "unresolved"
	}
	if spread(a) > d.Bound {
		return "unresolved"
	}
	change := (median(b) - median(a)) / median(a)
	if d.Better == "higher" {
		change = -change
	}
	if change > d.Bound {
		return "worse"
	}
	return "ok"
}

func compareReports(sp *spec, pathsA, pathsB string) int {
	a, err := loadSide(pathsA)
	if err != nil {
		return fatal(err)
	}
	b, err := loadSide(pathsB)
	if err != nil {
		return fatal(err)
	}
	fmt.Printf("%-13s %-14s %14s %14s  %-22s %6s  %s\n", "workload", "metric", "a", "b", "b/a (base a)", "bound", "verdict")
	code := 0
	for _, w := range sp.Workloads {
		for _, d := range sp.judged() {
			va, vb := values(a[w.Name], d.Name), values(b[w.Name], d.Name)
			v := verdict(d, va, vb)
			if v == "worse" {
				code = 1
			}
			ma, mb := median(va), median(vb)
			fmt.Printf("%-13s %-14s %14.4f %14.4f  %-22s %5.0f%%  %s\n", w.Name, d.Name, ma, mb,
				fmt.Sprintf("%.3f (of %.4g %s)", ratio(mb, ma), ma, d.Unit), 100*d.Bound, v)
		}
	}
	return code
}
