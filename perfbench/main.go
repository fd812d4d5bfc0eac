// Command perfbench is the SUSHI stack benchmark. It measures the three
// paths users run — Simulate (virtual-time engine), live HTTP serving
// and the int8 forward engine — end to end with tracing off, or layer by
// layer with -trace 1, and checks their outputs.
//
// Run it from the repository root through perfbench/run.sh, which builds
// it:
//
//	bash perfbench/run.sh --workload sim-cohorts --seed 1 --seconds 55 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the metric names and units are
// the ones BENCHMARK.json declares.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

func main() {
	name := flag.String("workload", "", "workload: sim-cohorts or live-http")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 55, "measured time of one run in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	probe := flag.Bool("setup-probe", false, "internal: time one cold set-up and print it")
	digests := flag.Bool("write-digests", false, "print the forward reference digests and exit")
	shapes := flag.Bool("rank-shapes", false, "print conv shapes ranked by share of forward time and exit")
	flag.Parse()

	var err error
	switch {
	case *probe:
		err = setupProbe()
	case *digests:
		err = writeDigests()
	case *shapes:
		err = rankShapes()
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	default:
		err = run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run measures one workload and prints the result line. A run whose
// checks fail still prints its result (correct: false) but exits 1.
func run(name string, seed int64, seconds time.Duration, trace bool) error {
	bf, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return fmt.Errorf("non-positive measuring time %v", seconds)
	}
	rep := newReport()
	if err := measure(rep, name, seed, seconds, trace); err != nil {
		return err
	}
	want := bf.EndToEnd
	if trace {
		want = bf.PerLayer
	}
	if err := rep.emit(want); err != nil {
		return err
	}
	if len(rep.problems) > 0 || rep.failed > 0 {
		return fmt.Errorf("%d checks failed, %d of %d operations failed", len(rep.problems), rep.failed, rep.attempted)
	}
	return nil
}
