// Command perfbench times real Jade scenarios through jade.RunScenario,
// one simulation at a time, and prints one JSON result line.
//
// Usage (from the repository root, via perfbench/run.sh, which builds
// this package first):
//
//	bash perfbench/run.sh --workload paper-ramp --seed 1 --seconds 50 --trace 0
//	bash perfbench/run.sh compare a.json b.json
//
// With --trace 0 it repeats plain runs of the workload for --seconds and
// reports host-side end-to-end metrics: wall_s, cpu_s and live_heap_mb
// (medians over the repeats) and setup_s (median of several zero-length
// runs). With --trace 1 it runs the workload once and then, for the rest
// of --seconds, times each layer's public functions on workload-shaped
// inputs or the run's end state, reporting per-layer counts, costs and
// estimated shares.
//
// Every run is checked: its trajectory digest must be identical across
// repeats, the C-JDBC replicas must be consistent at run end, and the
// workload's own checks (no invariant violation, both sizing loops
// grown) must hold. A run that fails a check counts all of its simulated
// requests as failed, and the result reads "correct": false.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// setupRepeats is how many zero-length runs setup_s takes the median of.
const setupRepeats = 21

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is what --out saves: the result plus what makes it comparable.
type record struct {
	Host     host   `json:"host"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Digest   digest `json:"digest"`
	Result   result `json:"result"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run: paper-ramp, chaos-net or million-fluid")
	seed := fs.Int64("seed", 1, "seed every scenario config is built from")
	seconds := fs.Float64("seconds", 50, "how long to repeat measured runs")
	traced := fs.Int("trace", 0, "1: run the per-layer pass instead of the end-to-end pass")
	out := fs.String("out", "", "also write a comparable record (host fingerprint, digest, result) to this file")
	fs.Parse(os.Args[1:])

	rec, err := bench(os.Stdout, *name, *seed, *seconds, *traced == 1, 1, "BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *out != "" {
		data, _ := json.MarshalIndent(rec, "", "  ")
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	line, _ := json.Marshal(rec.Result)
	fmt.Println(string(line))
}

// bench runs one workload and returns its record; the human-readable
// report goes to w. scale shortens the client profile: 1 is the
// benchmarked size, the tests run a small fraction.
func bench(w io.Writer, name string, seed int64, seconds float64, traced bool, scale float64, specPath string) (*record, error) {
	wl, err := lookupWorkload(name)
	if err != nil {
		return nil, err
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		return nil, err
	}
	h := currentHost()
	fmt.Fprintf(w, "host: %s\n", h)
	rec := &record{Host: h, Workload: name, Seed: seed}
	var ms []metric
	var runs []*run
	if traced {
		rec.Trace = 1
		lp, err := tracedPass(wl, seed, seconds, scale)
		if err != nil {
			return nil, err
		}
		runs = append([]*run{lp.base}, lp.extra...)
		ms = lp.ms
	} else {
		runs, ms, err = endToEnd(wl, seed, seconds, scale)
		if err != nil {
			return nil, err
		}
	}
	rec.Digest = runs[0].digest
	res := summarize(w, runs)
	fmt.Fprintf(w, "workload %s seed %d: %d runs, digest %v\n", name, seed, len(runs), runs[0].digest)
	if !traced {
		fmt.Fprintf(w, "wall_s samples %.4f\n", walls(runs))
	}
	fmt.Fprintf(w, "ops %d failed %d\n", res.Attempted, res.Failed)
	for _, m := range sortedMetrics(ms) {
		if m.ok {
			fmt.Fprintf(w, "  %-32s %14.6g %s\n", m.name, m.value, m.unit)
		} else {
			fmt.Fprintf(w, "  %-32s %14s %s\n", m.name, "n/a", m.unit)
		}
	}
	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	byName := map[string]metric{}
	for _, m := range ms {
		byName[m.name] = m
	}
	for _, sm := range want {
		m, ok := byName[sm.Name]
		if !ok {
			return nil, fmt.Errorf("%s names metric %s, which this pass (trace %d) does not produce", specPath, sm.Name, rec.Trace)
		}
		if m.unit != sm.Unit {
			return nil, fmt.Errorf("metric %s has unit %s, %s says %s", sm.Name, m.unit, specPath, sm.Unit)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("metric %s is not finite", sm.Name)
		}
		res.Metrics[sm.Name] = metricValue{Value: m.value, Unit: m.unit}
	}
	rec.Result = res
	return rec, nil
}

// summarize checks that every repeat followed the same trajectory and
// tallies the simulated requests attempted and failed; a run that failed
// any output check counts all of its requests as failed.
func summarize(w io.Writer, runs []*run) result {
	sameTrajectory(runs)
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	seen := map[string]int{}
	var problems []string
	for _, r := range runs {
		res.Attempted += r.ops()
		res.Failed += r.failedOps()
		for _, p := range r.problems {
			res.Correct = false
			if seen[p] == 0 {
				problems = append(problems, p)
			}
			seen[p]++
		}
	}
	for _, p := range problems {
		fmt.Fprintf(w, "CHECK FAILED (%d of %d runs): %s\n", seen[p], len(runs), p)
	}
	res.Attempted = max(res.Attempted, 1)
	return res
}

func walls(runs []*run) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.wall
	}
	return out
}

// endToEnd sets the workload up setupRepeats times, then repeats plain
// runs for about seconds (at least one run; a run is started while the
// median run time says it ends less than half a run past the deadline),
// and reports medians.
func endToEnd(wl workload, seed int64, seconds, scale float64) ([]*run, []metric, error) {
	cfg := wl.config(seed, scale)
	setup, err := setupSeconds(cfg, setupRepeats)
	if err != nil {
		return nil, nil, err
	}
	var runs []*run
	var wall, cpus, heaps []float64
	start := time.Now()
	for {
		r, err := timedRun(wl, wl.config(seed, scale), scale == 1)
		if err != nil {
			return nil, nil, err
		}
		r.res = nil // keep only one simulation's state alive at a time
		runs = append(runs, r)
		wall = append(wall, r.wall)
		cpus = append(cpus, r.cpu)
		heaps = append(heaps, r.heapMB)
		if time.Since(start).Seconds()+median(wall)/2 > seconds {
			break
		}
	}
	ms := []metric{
		{"wall_s", "s", median(wall), true},
		{"cpu_s", "s", median(cpus), true},
		{"live_heap_mb", "MB", median(heaps), true},
		{"setup_s", "s", setup, true},
		{"runs", "count", float64(len(runs)), true},
	}
	return runs, ms, nil
}

// benchSpec is the part of BENCHMARK.json the program checks its output
// against.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return s, fmt.Errorf("%s lists no metrics", path)
	}
	return s, nil
}

// compare prints two records side by side. It refuses records measured
// on different hosts, and flags trajectories that differ.
func compare(w io.Writer, args []string) error {
	if len(args) != 2 {
		return errors.New("usage: perfbench compare A.json B.json")
	}
	var recs [2]record
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &recs[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	a, b := recs[0], recs[1]
	if a.Host != b.Host {
		return fmt.Errorf("host fingerprints differ, results are not comparable:\n  %s\n  %s", a.Host, b.Host)
	}
	if a.Workload != b.Workload || a.Seed != b.Seed || a.Trace != b.Trace {
		return fmt.Errorf("records are of different runs (%s seed %d trace %d vs %s seed %d trace %d)",
			a.Workload, a.Seed, a.Trace, b.Workload, b.Seed, b.Trace)
	}
	fmt.Fprintf(w, "host: %s\n", a.Host)
	if a.Digest != b.Digest {
		fmt.Fprintf(w, "TRAJECTORY DIFFERS:\n  %v\n  %v\n", a.Digest, b.Digest)
	} else {
		fmt.Fprintf(w, "trajectory identical: %v\n", a.Digest)
	}
	for _, name := range sortedKeys(a.Result.Metrics) {
		va, vb := a.Result.Metrics[name], b.Result.Metrics[name]
		ratio := "-"
		if va.Value != 0 {
			ratio = fmt.Sprintf("%.3fx", vb.Value/va.Value)
		}
		fmt.Fprintf(w, "  %-32s %14.6g %14.6g %s %s\n", name, va.Value, vb.Value, va.Unit, ratio)
	}
	return nil
}

func sortedKeys(m map[string]metricValue) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
