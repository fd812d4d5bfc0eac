package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"sushi/internal/accel"
	"sushi/internal/latencytable"
	"sushi/internal/sched"
	"sushi/internal/serving"
	"sushi/internal/simq"
)

func TestSelfNsNeverNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		total := rng.Int63n(1e9)
		children := make([]int64, rng.Intn(4))
		var sum int64
		for k := range children {
			children[k] = rng.Int63n(5e8)
			sum += children[k]
		}
		got := selfNs(total, children...)
		if got < 0 {
			t.Fatalf("selfNs(%d, %v) = %d < 0", total, children, got)
		}
		if want := total - sum; want >= 0 && got != want {
			t.Fatalf("selfNs(%d, %v) = %d, want %d", total, children, got, want)
		}
		if total-sum < 0 && got != 0 {
			t.Fatalf("selfNs(%d, %v) = %d, want 0 when children exceed the parent", total, children, got)
		}
	}
}

func TestSpanPerCall(t *testing.T) {
	var s span
	if s.perCall() != 0 {
		t.Fatalf("empty span perCall = %g", s.perCall())
	}
	s.add(3 * time.Microsecond)
	s.add(5 * time.Microsecond)
	if s.calls != 2 || s.perCall() != 4000 {
		t.Fatalf("span %+v perCall %g, want 2 calls of 4000 ns", s, s.perCall())
	}
}

func TestNextTurn(t *testing.T) {
	s := time.Second
	for _, c := range []struct {
		el, b4 time.Duration
		done   int
		want   time.Duration
	}{
		{16 * s, 10 * s, 1, 6 * s},  // after the first turn, an odd one: no batch-4 sweep
		{22 * s, 10 * s, 2, 16 * s}, // an even turn adds the mean batch-4 sweep
		{36 * s, 20 * s, 3, 16 * s / 3},
		{48 * s, 24 * s, 4, 6*s + 12*s},
	} {
		if got := nextTurn(c.el, c.b4, c.done); got != c.want {
			t.Errorf("nextTurn(%v, %v, %d) = %v, want %v", c.el, c.b4, c.done, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.1, 1.4}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Errorf("quantile of no data is not NaN")
	}
	if quietRate(xs) != 4.6 || quietTime(xs) != 1.4 {
		t.Errorf("quietRate %g quietTime %g, want 4.6 and 1.4", quietRate(xs), quietTime(xs))
	}
}

func TestWindowMedians(t *testing.T) {
	per := int(liveRate * liveWindow.Seconds())
	lat := make([]float64, 2*per+per/2)
	for i := range lat {
		lat[i] = float64(i / per)
	}
	got := windowMedians(lat)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("windowMedians = %v, want [0 1] (the partial last window dropped)", got)
	}
}

// tracedRun is one short sim-cohorts run with the offered queries
// recorded, as the traced pass makes it.
func tracedRun(t *testing.T, n int) (*simq.Result, []sched.Query) {
	t.Helper()
	tr, err := newTraffic(workloads["sim-cohorts"], 7)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := deploySim()
	if err != nil {
		t.Fatal(err)
	}
	var route span
	eng, err := simq.FromCluster(dep.Cluster, tr.options(&timedRouter{Router: serving.NewLeastLoaded(), sp: &route}))
	if err != nil {
		t.Fatal(err)
	}
	offered := make([]sched.Query, n)
	var draw span
	res, err := tr.run(eng, 7, n, &draw, offered)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResult(res); err != nil {
		t.Fatal(err)
	}
	if draw.calls < int64(n) || route.calls != int64(n) {
		t.Fatalf("%d draws and %d routes for %d queries", draw.calls, route.calls, n)
	}
	return res, offered
}

func TestReplayCallCountsMatchOutcomes(t *testing.T) {
	const n = 20000
	res, offered := tracedRun(t, n)
	passes, err := passesOf(res, simReplicas)
	if err != nil {
		t.Fatal(err)
	}
	// Every served outcome sits in exactly one pass, and a pass holds
	// as many members as its outcomes' batch size.
	var members, wantPasses float64
	seen := map[int]bool{}
	for _, rp := range passes {
		for _, p := range rp {
			for _, m := range p.members {
				if seen[m] || res.Outcomes[m].Dropped {
					t.Fatalf("outcome %d placed twice or dropped", m)
				}
				seen[m] = true
			}
			members += float64(len(p.members))
		}
	}
	for i := range res.Outcomes {
		if o := &res.Outcomes[i]; !o.Dropped {
			wantPasses += 1 / float64(o.Batch)
		}
	}
	npasses := 0
	for _, rp := range passes {
		npasses += len(rp)
	}
	if int(members) != res.Served || float64(npasses) != math.Round(wantPasses) {
		t.Fatalf("%g members in %d passes, run served %d in %g passes", members, npasses, res.Served, wantPasses)
	}

	fresh, err := deploySim()
	if err != nil {
		t.Fatal(err)
	}
	var serve span
	misses, err := replayServe(fresh.Cluster.Replicas(), res, offered, passes, &serve)
	if err != nil {
		t.Fatal(err)
	}
	if serve.calls != int64(npasses) {
		t.Fatalf("serve replay made %d calls for %d passes", serve.calls, npasses)
	}
	fresh, err = deploySim()
	if err != nil {
		t.Fatal(err)
	}
	var decide span
	if err := replaySched(fresh.Cluster.Replicas(), res, offered, passes, &decide); err != nil {
		t.Fatal(err)
	}
	if decide.calls != int64(npasses) {
		t.Fatalf("sched replay made %d calls for %d passes", decide.calls, npasses)
	}
	var cfg accel.Config
	var table *latencytable.Table
	fresh.Cluster.Replicas()[0].Inspect(func(s *serving.System) { cfg, table = s.Simulator().Config(), s.Table() })
	var pass span
	if err := replayAccel(cfg, table, misses, &pass); err != nil {
		t.Fatal(err)
	}
	if pass.calls != int64(len(misses)) || len(misses) == 0 || len(misses) > npasses {
		t.Fatalf("accel replay made %d calls for %d memo misses of %d passes", pass.calls, len(misses), npasses)
	}
}

func TestPassesOfRejectsBatchMismatch(t *testing.T) {
	res, _ := tracedRun(t, 2000)
	for i := range res.Outcomes {
		if o := &res.Outcomes[i]; !o.Dropped {
			o.Batch++
			break
		}
	}
	if _, err := passesOf(res, simReplicas); err == nil {
		t.Fatal("passesOf accepted an outcome whose batch size disagrees with its pass")
	}
}

// TestTracedSimSelfTimes runs the traced Simulate pass on each
// workload's traffic: no metric is negative, and the contrast check
// holds (the cache moves on sim-cohorts and stays put on live-http).
func TestTracedSimSelfTimes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full traced simulation per workload")
	}
	for name, spec := range workloads {
		tr, err := newTraffic(spec, 3)
		if err != nil {
			t.Fatal(err)
		}
		rep := newReport()
		if err := traceSim(rep, tr, 3); err != nil {
			t.Fatal(err)
		}
		if len(rep.problems) > 0 {
			t.Errorf("%s: %v", name, rep.problems)
		}
		for m, v := range rep.metrics {
			if v.Value < 0 || math.IsNaN(v.Value) {
				t.Errorf("%s: %s = %g", name, m, v.Value)
			}
		}
	}
}

// TestTrafficDiffers pins what sets the workloads apart: live-http sends
// one fixed constraint on every path, sim-cohorts spreads its live
// requests over several budgets.
func TestTrafficDiffers(t *testing.T) {
	for name, spec := range workloads {
		tr, err := newTraffic(spec, 5)
		if err != nil {
			t.Fatal(err)
		}
		budgets := map[float64]bool{}
		for _, q := range tr.live {
			budgets[q.MaxLatencyMS] = true
		}
		if spec.moving && len(budgets) < 100 {
			t.Errorf("%s: %d distinct live budgets, want a spread", name, len(budgets))
		}
		if !spec.moving {
			if len(tr.live) != 1 {
				t.Errorf("%s: %d live requests, want the one fixed constraint", name, len(tr.live))
			}
			for _, c := range tr.pop.Cohorts {
				if len(c.Budget.Values) != 1 || c.Budget.Values[0] != tr.live[0].MaxLatencyMS/1e3 ||
					len(c.Accuracy.Values) != 1 || c.Accuracy.Values[0] != tr.live[0].MinAccuracy {
					t.Fatalf("%s: cohort budget %v floor %v, want the live constraint %+v", name, c.Budget, c.Accuracy, tr.live[0])
				}
			}
		}
	}
}

// TestDeclarationsMatch keeps BENCHMARK.json and the program in step:
// every declared workload is defined, every per-layer metric has a layer
// map entry (exact, or a "prefix.*" entry), and the frozen conv shapes
// are all declared.
func TestDeclarationsMatch(t *testing.T) {
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not defined", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json declares workloads %v, the program defines %d", names, len(workloads))
	}
	declared := map[string]bool{}
	for _, m := range bf.PerLayer {
		declared[m.Name] = true
	}
	for _, s := range topConvShapes {
		for _, p := range []string{"tensor.conv_gmacs.", "tensor.conv_mmacs.", "tensor.conv_mb."} {
			if !declared[p+s.name()] {
				t.Errorf("per-layer metric %s%s is not declared", p, s.name())
			}
		}
	}
	b, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var layers map[string]struct {
		Layer string   `json:"layer"`
		Path  string   `json:"path"`
		Moves []string `json:"moves"`
	}
	if err := json.Unmarshal(b, &layers); err != nil {
		t.Fatal(err)
	}
	e2e := map[string]bool{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = true
	}
	used := map[string]bool{}
	for name := range declared {
		key := name
		if _, ok := layers[key]; !ok {
			for k := range layers {
				if strings.HasSuffix(k, ".*") && strings.HasPrefix(name, strings.TrimSuffix(k, "*")) {
					key = k
				}
			}
		}
		used[key] = true
		l, ok := layers[key]
		if !ok {
			t.Errorf("per-layer metric %s has no entry in layers.json", name)
			continue
		}
		switch l.Path {
		case "setup", "sim", "live", "forward":
		default:
			t.Errorf("layers.json: %s names unknown path %q", name, l.Path)
		}
		for _, m := range l.Moves {
			if !e2e[m] {
				t.Errorf("layers.json: %s moves undeclared end-to-end metric %q", name, m)
			}
		}
	}
	var extra []string
	for name := range layers {
		if !used[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("layers.json maps undeclared metrics %v", extra)
	}
}
