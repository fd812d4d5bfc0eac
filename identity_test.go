package sushi_test

// Bit-identity pin for the multi-tenant refactor (PR 5), in the spirit
// of PR 4's B=1 identity: single-model deployments must reproduce the
// pre-refactor engine bit for bit, per seed. The digests below were
// captured on the pre-refactor tree (commit ffd98e0) over two canonical
// configurations that together exercise the whole single-model stack —
// routing, admission control, load-aware debiting, drops, degradation,
// heterogeneous tables, re-caching and the micro-batch former. The
// digest deliberately excludes the dropped queries' Served.Query echo
// (zero before this PR; populated now so per-model drop accounting has
// a model id) — everything that determines timing, placement and
// service is covered.
//
// PR 6 (elastic fleets) extends the pin: the SAME goldens must hold
// when the deployment carries a DISABLED autoscale config (Min == Max
// == N) — see TestAutoscaleDisabledBitIdentical.

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"testing"
	"time"

	"sushi"
)

// outcomeDigest hashes every behavioural field of a simulated run.
func outcomeDigest(res *sushi.SimResult) string {
	h := sha256.New()
	for i, o := range res.Outcomes {
		fmt.Fprintf(h, "%d|%d|%d|%t|%d|%.12e|%.12e|%.12e|%.12e|%t\n",
			i, o.Replica, int(o.Reason), o.Degraded, o.Batch,
			o.Arrival, o.Start, o.Finish, o.RecacheSec, o.Dropped)
		if !o.Dropped {
			fmt.Fprintf(h, "%s|%d|%.12e|%.12e|%t|%t|%t|%t|%.12e|%d|%.12e\n",
				o.SubNet, o.Row, o.Latency, o.Accuracy,
				o.Feasible, o.LatencyMet, o.CacheSwapped, o.Recached,
				o.HitRatio, o.HitBytes, o.OffChipEnergyJ)
		}
	}
	fmt.Fprintf(h, "served=%d dropped=%d degraded=%d recaches=%d\n",
		res.Served, res.Dropped, res.Degraded, res.Recaches)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// identityRuns are the pinned configurations. Each builds a FRESH
// deployment (runs mutate cache state) and simulates a seeded stream;
// extra cluster options compose onto the base deployment so the same
// run can be replayed with a pinned (Min == Max) autoscale config.
var identityRuns = []struct {
	name   string
	golden string
	run    func(t *testing.T, extra ...sushi.ClusterOption) *sushi.SimResult
}{
	{
		name:   "homogeneous-mbv3-degrade",
		golden: "0e71fc8a2c8c10705feab058cdd5d4ef90b76d5048120204e6a2a64823e752fa",
		run: func(t *testing.T, extra ...sushi.ClusterOption) *sushi.SimResult {
			opts := append([]sushi.ClusterOption{sushi.WithReplicas(4)}, extra...)
			c, err := sushi.NewCluster(sushi.Options{Workload: sushi.MobileNetV3}, opts...)
			if err != nil {
				t.Fatal(err)
			}
			qs, err := sushi.UniformWorkload(300,
				sushi.Range{Lo: 60, Hi: 80}, sushi.Range{Lo: 5e-3, Hi: 50e-3}, 7)
			if err != nil {
				t.Fatal(err)
			}
			arr, err := (sushi.OnOff{OnRate: 900, OffRate: 120, MeanOn: 0.12, MeanOff: 0.12}).Times(300, 7)
			if err != nil {
				t.Fatal(err)
			}
			stream, err := sushi.TimedStream(qs, arr)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Simulate(stream, sushi.SimOptions{
				QueueCap:  4,
				Admission: sushi.AdmitDegrade,
				LoadAware: true,
				Drop:      true,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		},
	},
	{
		name:   "multitenant-shared-traffic",
		golden: "8ba9902f121fda70153b510f56f6eac547c969024782fe31f2873371997478c5",
		run: func(t *testing.T, extra ...sushi.ClusterOption) *sushi.SimResult {
			opts := append([]sushi.ClusterOption{
				sushi.WithModels(sushi.ResNet50, sushi.MobileNetV3),
				sushi.WithReplicas(4),
				sushi.WithRouter(sushi.LeastLoaded),
				sushi.WithPartition(sushi.PartitionPolicy{Mode: sushi.PartitionTraffic}),
			}, extra...)
			c, err := sushi.NewCluster(sushi.Options{}, opts...)
			if err != nil {
				t.Fatal(err)
			}
			// Anti-phase diurnal per-model streams: one model peaks while
			// the other troughs — the consolidation scenario that drives
			// traffic-weighted PB stealing.
			mix := sushi.Mix{Components: []sushi.MixComponent{
				{Model: string(sushi.ResNet50),
					Process: sushi.Diurnal{BaseRate: 60, Amplitude: 0.8, Period: 4}},
				{Model: string(sushi.MobileNetV3),
					Process: sushi.Diurnal{BaseRate: 120, Amplitude: 0.8, Period: 4, Phase: 3.14159265}},
			}}
			times, labels, err := mix.Labeled(300, 13)
			if err != nil {
				t.Fatal(err)
			}
			budget := map[string]float64{
				string(sushi.ResNet50):    60e-3,
				string(sushi.MobileNetV3): 20e-3,
			}
			qs := make([]sushi.TimedQuery, len(times))
			for i := range qs {
				qs[i] = sushi.TimedQuery{
					Query:   sushi.Query{ID: i, Model: labels[i], MaxLatency: budget[labels[i]]},
					Arrival: times[i],
				}
			}
			res, err := c.Simulate(qs, sushi.SimOptions{
				QueueCap:  3,
				Admission: sushi.AdmitReject,
				LoadAware: true,
				Drop:      true,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		},
	},
	{
		name:   "hetero-rn50-recache-batched",
		golden: "5b4ed29d7a561e3a6a52280ac868ca53b38c1111d53f06086ee0e8a6a4f3114b",
		run: func(t *testing.T, extra ...sushi.ClusterOption) *sushi.SimResult {
			opts := append([]sushi.ClusterOption{
				sushi.WithHardware(sushi.ZCU104(), sushi.ZCU104(), sushi.AlveoU50(), sushi.AlveoU50()),
				sushi.WithRouter(sushi.Fastest),
				sushi.WithRecache(sushi.RecachePolicy{Window: 12, MinGain: 0.02, Cooldown: 12}),
				sushi.WithBatching(4, 10*time.Millisecond),
			}, extra...)
			c, err := sushi.NewCluster(sushi.Options{Workload: sushi.ResNet50}, opts...)
			if err != nil {
				t.Fatal(err)
			}
			qs, err := sushi.DriftingWorkload(300,
				sushi.Range{}, sushi.Range{},
				sushi.Range{Lo: 40e-3, Hi: 60e-3}, sushi.Range{Lo: 5e-3, Hi: 15e-3}, 11)
			if err != nil {
				t.Fatal(err)
			}
			arr, err := sushi.PoissonArrivals(300, 250, 11)
			if err != nil {
				t.Fatal(err)
			}
			stream, err := sushi.TimedStream(qs, arr)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Simulate(stream, sushi.SimOptions{
				QueueCap:  6,
				Admission: sushi.AdmitShedOldest,
				LoadAware: true,
				Drop:      true,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		},
	},
}

// TestSingleModelBitIdentical is the refactor's safety property: a
// deployment that never names a model (no WithModels) must reproduce
// the pre-refactor outcomes bit for bit, per seed.
func TestSingleModelBitIdentical(t *testing.T) {
	for _, ir := range identityRuns {
		t.Run(ir.name, func(t *testing.T) {
			got := outcomeDigest(ir.run(t))
			if got != ir.golden {
				t.Errorf("single-model run diverged from the pre-refactor pin:\n  got    %s\n  golden %s", got, ir.golden)
			}
		})
	}
}

// TestSingleCohortPoissonClusterIdentity is the inert-layer pin at
// cluster level: a one-cohort Poisson Population drawn with
// Population.Queries and played through Simulate must reproduce — bit for bit — a plain Simulate
// over Poisson arrivals carrying the same constant budget/accuracy
// marks. Single-value Empiricals make the marks deterministic, so the
// two runs present identical streams; any digest divergence means the
// cohort layer perturbed arrival or mint order.
func TestSingleCohortPoissonClusterIdentity(t *testing.T) {
	const (
		n    = 300
		rate = 400.0
		seed = int64(19)
	)
	deploy := func() *sushi.Cluster {
		c, err := sushi.NewCluster(sushi.Options{Workload: sushi.MobileNetV3},
			sushi.WithReplicas(4))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	opt := sushi.SimOptions{
		QueueCap:  4,
		Admission: sushi.AdmitDegrade,
		LoadAware: true,
		Drop:      true,
	}
	pop := sushi.Population{Cohorts: []sushi.Cohort{{
		Rate:     rate,
		SLOClass: "gold",
		Budget:   sushi.Empirical{Values: []float64{12e-3}},
		Accuracy: sushi.Empirical{Values: []float64{65}},
	}}}
	viaPop, err := deploy().Simulate(populationStream(t, pop, n, seed), opt)
	if err != nil {
		t.Fatal(err)
	}

	arr, err := sushi.PoissonArrivals(n, rate, seed)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]sushi.TimedQuery, n)
	for i := range qs {
		qs[i] = sushi.TimedQuery{
			Query:   sushi.Query{ID: i, Class: "gold", MaxLatency: 12e-3, MinAccuracy: 65},
			Arrival: arr[i],
		}
	}
	viaPlain, err := deploy().Simulate(qs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if dp, ds := outcomeDigest(viaPop), outcomeDigest(viaPlain); dp != ds {
		t.Errorf("single-cohort population diverged from plain Poisson:\n  population %s\n  plain      %s", dp, ds)
	}
}

// populationStream draws n arrivals of pop under seed as the timed
// stream Cluster.Simulate plays.
func populationStream(t *testing.T, pop sushi.Population, n int, seed int64) []sushi.TimedQuery {
	t.Helper()
	qs, arr, err := pop.Queries(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := sushi.TimedStream(qs, arr)
	if err != nil {
		t.Fatal(err)
	}
	return stream
}

// TestCohortPopulationGoldenDigest pins the full cohort path — a
// skewed multi-class population drawn with Population.Queries and
// played through Simulate over a multi-tenant fleet — to a digest
// captured on the tree that introduced it. Any change to cohort RNG
// derivation, mark drawing, label threading or merge order shows up
// here.
func TestCohortPopulationGoldenDigest(t *testing.T) {
	const golden = "9749e4d9b6577059f619c541db7db4ea3171dc45dec5b15a2f95a94556a72290"
	pop := sushi.Population{Cohorts: []sushi.Cohort{
		{Rate: 120, SLOClass: "gold", Model: string(sushi.MobileNetV3),
			InterArrival: sushi.IAGamma, Shape: 0.3,
			Budget: sushi.Empirical{Values: []float64{10e-3, 20e-3}, Weights: []float64{3, 1}}},
		{Rate: 60, SLOClass: "silver", Model: string(sushi.ResNet50),
			InterArrival: sushi.IAWeibull, Shape: 0.7,
			Budget: sushi.Empirical{Values: []float64{60e-3}}},
		{Rate: 40, SLOClass: "batch", Model: string(sushi.MobileNetV3),
			Budget:   sushi.Empirical{Values: []float64{40e-3}},
			Accuracy: sushi.Empirical{Values: []float64{60, 70}}},
	}}
	c, err := sushi.NewCluster(sushi.Options{},
		sushi.WithModels(sushi.ResNet50, sushi.MobileNetV3),
		sushi.WithReplicas(4),
		sushi.WithRouter(sushi.LeastLoaded),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Simulate(populationStream(t, pop, 400, 31), sushi.SimOptions{
		QueueCap:  4,
		Admission: sushi.AdmitReject,
		LoadAware: true,
		Drop:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := outcomeDigest(res); got != golden {
		t.Errorf("cohort population run diverged from its pin:\n  got    %s\n  golden %s", got, golden)
	}
	// The classed breakdown must be present and cover every cohort class.
	if len(res.Summary.PerClass) != 3 {
		t.Fatalf("got %d SLO classes, want 3: %+v", len(res.Summary.PerClass), res.Summary.PerClass)
	}
	if res.Summary.FairnessJain <= 0 || res.Summary.FairnessJain > 1 {
		t.Errorf("Jain index %g outside (0, 1]", res.Summary.FairnessJain)
	}
}

// TestAutoscaleDisabledBitIdentical is the elastic-fleet safety
// property: the SAME goldens must hold when every deployment carries a
// pinned autoscale config (Min == Max == replica count). A pinned
// config is Enabled() == false, so no evaluation events fire, no
// replica ever leaves Active, and the engine takes the fixed-fleet
// fast path — across homogeneous, multi-tenant and
// hetero+recache+batched configurations.
func TestAutoscaleDisabledBitIdentical(t *testing.T) {
	pin := sushi.WithAutoscale(sushi.AutoscaleOptions{
		Min: 4, Max: 4, Policy: "utilization", Interval: 0.05,
	})
	for _, ir := range identityRuns {
		t.Run(ir.name, func(t *testing.T) {
			got := outcomeDigest(ir.run(t, pin))
			if got != ir.golden {
				t.Errorf("Min == Max autoscale run diverged from the fixed-fleet pin:\n  got    %s\n  golden %s", got, ir.golden)
			}
		})
	}
}

// oneReplicaGrid is the option grid TestOneReplicaClusterDigest pins:
// both workloads x every system variant x every policy x swap-latency
// charging on/off, plus seed, Q and candidate-count variants — 39 sets.
func oneReplicaGrid() []sushi.Options {
	var opts []sushi.Options
	for _, w := range []sushi.Workload{sushi.ResNet50, sushi.MobileNetV3} {
		for _, m := range []sushi.Mode{sushi.Full, sushi.StateUnaware, sushi.NoPB} {
			for _, p := range []sushi.Policy{sushi.StrictAccuracy, sushi.StrictLatency, sushi.MinEnergy} {
				for _, charge := range []bool{false, true} {
					opts = append(opts, sushi.Options{Workload: w, Mode: m, Policy: p, ChargeSwapLatency: charge})
				}
			}
		}
	}
	return append(opts,
		sushi.Options{Workload: sushi.MobileNetV3, Seed: 7},
		sushi.Options{Workload: sushi.ResNet50, Q: 2},
		sushi.Options{Workload: sushi.MobileNetV3, Candidates: 8},
	)
}

// digestServed hashes one option set's frontier, final cache view and
// every field of every served outcome, in stream order.
func digestServed(h hash.Hash, i int, rs []sushi.Served, cache sushi.CacheState, fr []sushi.SubNetInfo) {
	fmt.Fprintf(h, "opt %d frontier %d cache %+v\n", i, len(fr), cache)
	for _, f := range fr {
		fmt.Fprintf(h, "%+v\n", f)
	}
	for j, r := range rs {
		fmt.Fprintf(h, "%d|%d|%q|%q|%v|%v|%s|%d|%v|%v|%t|%t|%t|%t|%t|%d|%v|%d|%v\n",
			j, r.Query.ID, r.Query.Model, r.Query.Class, r.Query.MinAccuracy, r.Query.MaxLatency,
			r.SubNet, r.Row, r.Latency, r.Accuracy,
			r.Feasible, r.LatencyMet, r.AccuracyMet, r.CacheSwapped, r.Recached,
			r.Batch, r.HitRatio, r.HitBytes, r.OffChipEnergyJ)
	}
}

// TestOneReplicaClusterDigest pins a one-replica Cluster — the only
// deployment shape — to the single-accelerator System it replaced. The
// golden was captured from the removed sushi.New(opt).ServeAll (with
// System.Cache and System.Frontier) on the same grid and streams, so
// closed-loop serving on one accelerator is unchanged bit for bit.
func TestOneReplicaClusterDigest(t *testing.T) {
	const golden = "8a34cfa01cf46da1f830404d055c54913335fbf0fd5a0747485442bf88b5e20c"
	h := sha256.New()
	for i, opt := range oneReplicaGrid() {
		acc, lat := sushi.Range{Lo: 76, Hi: 80}, sushi.Range{Lo: 2e-3, Hi: 8e-3}
		if opt.Workload == sushi.ResNet50 {
			acc, lat = sushi.Range{Lo: 74, Hi: 80}, sushi.Range{Lo: 10e-3, Hi: 60e-3}
		}
		qs, err := sushi.UniformWorkload(64, acc, lat, 5)
		if err != nil {
			t.Fatal(err)
		}
		c, err := sushi.NewCluster(opt)
		if err != nil {
			t.Fatal(err)
		}
		if c.Size() != 1 {
			t.Fatalf("option set %d: NewCluster defaulted to %d replicas, want 1", i, c.Size())
		}
		rs, err := c.ServeAll(context.Background(), qs)
		if err != nil {
			t.Fatal(err)
		}
		digestServed(h, i, rs, c.Replicas()[0].Cache, c.Frontier())
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != golden {
		t.Errorf("one-replica cluster diverged from the single-System pin:\n  got    %s\n  golden %s", got, golden)
	}
}
