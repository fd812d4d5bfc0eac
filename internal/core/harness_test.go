package core

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"sushi/internal/serving"
)

// TestRunPointsDeterministicFold pins the harness contract: parallel
// and sequential execution fill the same per-index slots, and the first
// error in grid order wins regardless of completion order.
func TestRunPointsDeterministicFold(t *testing.T) {
	const n = 37
	for _, parallel := range []bool{true, false} {
		SetParallelExperiments(parallel)
		out := make([]int, n)
		if err := runPoints(n, func(i int) error {
			out[i] = i * i
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("parallel=%v: slot %d = %d, want %d", parallel, i, v, i*i)
			}
		}
	}
	SetParallelExperiments(true)

	errA, errB := errors.New("a"), errors.New("b")
	var calls atomic.Int64
	err := runPoints(8, func(i int) error {
		calls.Add(1)
		switch i {
		case 3:
			return errB
		case 2:
			return errA
		}
		return nil
	})
	if err != errA {
		t.Fatalf("first-in-grid-order error = %v, want %v", err, errA)
	}
}

// TestExperimentsParallelMatchSequential is the tentpole's identity
// check at experiment granularity: every parallelized experiment must
// produce a deeply equal Result with the harness on and off. (The
// sha256 goldens in the root package pin the same property against
// recorded digests; this test localizes a break to the harness.)
func TestExperimentsParallelMatchSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every fleet experiment twice")
	}
	runs := []struct {
		name string
		run  func() (*Result, error)
	}{
		{"loadsweep", func() (*Result, error) { return LoadSweep(MobileNetV3, 120) }},
		{"batchsweep", func() (*Result, error) { return BatchSweep(MobileNetV3, 120) }},
		{"hetero", func() (*Result, error) { return Hetero(MobileNetV3, 80) }},
		{"multitenant", func() (*Result, error) { return MultiTenant(160) }},
		{"elastic", func() (*Result, error) { return Elastic(160) }},
		{"cohortsweep", func() (*Result, error) { return CohortSweep(160) }},
	}
	for _, tc := range runs {
		SetParallelExperiments(true)
		par, err := tc.run()
		if err != nil {
			t.Fatalf("%s (parallel): %v", tc.name, err)
		}
		SetParallelExperiments(false)
		seq, err := tc.run()
		SetParallelExperiments(true)
		if err != nil {
			t.Fatalf("%s (sequential): %v", tc.name, err)
		}
		if !reflect.DeepEqual(par, seq) {
			t.Errorf("%s: parallel Result differs from sequential:\n%s\nvs\n%s",
				tc.name, par.String(), seq.String())
		}
	}
}

// TestSlowPathMatchesFastPathEndToEnd drives whole experiments with
// the process-wide slow path forced (serving.SetForceSlowPath: every
// system built afterwards runs the unmemoized scan implementation of
// each scheduling and routing decision) and compares against the fast
// path's Result — the end-to-end differential over routers, schedulers
// and build caches at once.
func TestSlowPathMatchesFastPathEndToEnd(t *testing.T) {
	runs := []struct {
		name string
		run  func() (*Result, error)
	}{
		{"loadsweep", func() (*Result, error) { return LoadSweep(MobileNetV3, 100) }},
		{"batchsweep", func() (*Result, error) { return BatchSweep(MobileNetV3, 0) }},
		{"decisionhot", func() (*Result, error) { return DecisionHot(MobileNetV3, 0) }},
	}
	for _, tc := range runs {
		t.Run(tc.name, func(t *testing.T) {
			fastRes, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			serving.SetForceSlowPath(true)
			slowRes, err := tc.run()
			serving.SetForceSlowPath(false)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fastRes, slowRes) {
				t.Errorf("%s: slow-path Result differs from fast path:\n%s\nvs\n%s",
					tc.name, fastRes.String(), slowRes.String())
			}
		})
	}
}
