package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics, its operation counts and every check
// that failed.
type report struct {
	metrics   map[string]metric
	attempted int64
	failed    int64
	problems  []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// set records a metric; a name may be set only once per run.
func (r *report) set(name, unit string, v float64) {
	if _, dup := r.metrics[name]; dup {
		r.problems = append(r.problems, "metric "+name+" set twice")
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// check records a failed correctness check and reports whether ok held.
func (r *report) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	return ok
}

// selectMetrics keeps exactly the declared metrics and records a problem
// for each one that is missing, not a finite number or in another unit.
func (r *report) selectMetrics(want []metricDecl) map[string]metric {
	out := make(map[string]metric, len(want))
	for _, d := range want {
		m, ok := r.metrics[d.Name]
		switch {
		case !ok:
			r.problems = append(r.problems, "metric "+d.Name+" was not measured")
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			r.problems = append(r.problems, fmt.Sprintf("metric %s is %v", d.Name, m.Value))
		case m.Unit != d.Unit:
			r.problems = append(r.problems, fmt.Sprintf("metric %s has unit %s, declared %s", d.Name, m.Unit, d.Unit))
		default:
			out[d.Name] = m
		}
	}
	return out
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// emit prints every failed check to standard error and the result line
// to standard output.
func (r *report) emit(want []metricDecl) error {
	ms := r.selectMetrics(want)
	probs := append([]string(nil), r.problems...)
	sort.Strings(probs)
	for _, p := range probs {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	line, err := json.Marshal(result{
		Correct:   len(probs) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   ms,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}
