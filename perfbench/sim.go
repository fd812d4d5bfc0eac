package main

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"time"

	"sushi/internal/accel"
	"sushi/internal/core"
	"sushi/internal/latencytable"
	"sushi/internal/sched"
	"sushi/internal/server"
	"sushi/internal/serving"
	"sushi/internal/simq"
	"sushi/internal/workload"
)

// The simulated fleet: 4 MobileNetV3 replicas in virtual time behind
// the least-loaded router, with bounded queues, degrade admission,
// load-aware debit and drop, and B=4 batching. The population is 100
// Zipf-1.4 cohorts at 0.85x fleet capacity. On sim-cohorts it is the
// cohortsweep skew: gamma/Weibull-bursty arrivals, with budgets spread
// over 1.4, 2 and 3x the slowest SubNet's latency, so the cached
// SubGraph keeps moving. On live-http the cohorts are Poisson and every
// query carries the live path's fixed constraint.
const (
	simReplicas = 4
	simQueueCap = 4
	simCohorts  = 100
	simLoad     = 0.85
	simZipf     = 1.4
	simMaxBatch = 4
	// simQueries is the length of one simulated run. Every run of one
	// seed is identical, so the virtual-time metrics are exact per seed.
	simQueries = 100_000
	// handedQueries is the length of the simulated run whose handed
	// constraints become the live requests of a moving workload.
	handedQueries = 20_000
)

// traffic is what one workload feeds every path: the simulated
// population and the live path's requests.
type traffic struct {
	spec  workloadSpec
	pop   workload.Population
	latHi float64 // the slowest SubNet's latency on the boot column
	// live are the live path's requests, sent in turn.
	live []server.ServeRequest
}

func deploySim() (*core.ClusterDeployment, error) {
	return core.DeployCluster(core.DeployOptions{Workload: core.MobileNetV3, Policy: sched.StrictLatency},
		core.ClusterOptions{Replicas: simReplicas})
}

// newTraffic builds one workload's traffic from the seed. A stationary
// workload sends the live path's fixed constraint on every path, and its
// cohorts arrive as Poisson streams: bursts would overflow the queues,
// and degrade admission rewrites an overflowing query to the column's
// fastest SubNet, which moves the cache. A moving workload streams the
// cohort budget mix through the simulated fleet and sends the live
// fleet the constraints its simulated replicas were handed: the budgets
// after queueing debit, which spread over the whole frontier (the
// undebited budgets all admit the slowest SubNet).
func newTraffic(spec workloadSpec, seed int64) (*traffic, error) {
	dep, err := deploySim()
	if err != nil {
		return nil, err
	}
	var table *latencytable.Table
	dep.Cluster.Replicas()[0].Inspect(func(s *serving.System) { table = s.Table() })
	latHi := table.Lookup(table.Rows()-1, 0)
	tr := &traffic{spec: spec, latHi: latHi}
	budget := workload.Empirical{
		Values:  []float64{latHi * 1.4, latHi * 2.0, latHi * 3.0},
		Weights: []float64{0.5, 0.3, 0.2},
	}
	var floor workload.Empirical
	if !spec.moving {
		q := fixedQuery(dep, seed)
		tr.live = []server.ServeRequest{q}
		budget = workload.Empirical{Values: []float64{q.MaxLatencyMS / 1e3}}
		floor = workload.Empirical{Values: []float64{q.MinAccuracy}}
	}
	rates := workload.ZipfRates(simCohorts, simLoad/latHi*simReplicas, simZipf)
	cohorts := make([]workload.Cohort, simCohorts)
	for i, r := range rates {
		c := workload.Cohort{Rate: r, Budget: budget, Accuracy: floor, InterArrival: workload.IAGamma}
		switch {
		case i < 5:
			c.SLOClass, c.Shape = "gold", 0.25
		case i < 20:
			c.SLOClass, c.InterArrival, c.Shape = "silver", workload.IAWeibull, 0.55
		default:
			c.SLOClass, c.Shape = "batch", 0.45
		}
		if !spec.moving {
			c.InterArrival, c.Shape = workload.IAExp, 0
		}
		cohorts[i] = c
	}
	tr.pop = workload.Population{Cohorts: cohorts}
	if spec.moving {
		if tr.live, err = tr.handed(seed); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// handed runs handedQueries of the population and returns, in arrival
// order, the constraints each served, undegraded query carried when its
// replica scheduled it.
func (tr *traffic) handed(seed int64) ([]server.ServeRequest, error) {
	dep, err := deploySim()
	if err != nil {
		return nil, err
	}
	eng, err := simq.FromCluster(dep.Cluster, tr.options(serving.NewLeastLoaded()))
	if err != nil {
		return nil, err
	}
	offered := make([]sched.Query, handedQueries)
	res, err := tr.run(eng, seed, handedQueries, nil, offered)
	if err != nil {
		return nil, err
	}
	var out []server.ServeRequest
	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		if o.Dropped || o.Degraded {
			continue
		}
		q := offered[i].Debit(o.Start - o.Arrival)
		out = append(out, server.ServeRequest{MinAccuracy: q.MinAccuracy, MaxLatencyMS: q.MaxLatency * 1e3})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no query of %d was served undegraded", handedQueries)
	}
	return out, nil
}

func (tr *traffic) options(router serving.Router) simq.Options {
	return simq.Options{
		QueueCap:  simQueueCap,
		Admission: simq.Degrade,
		LoadAware: true,
		Drop:      true,
		Router:    router,
		Batching:  simq.Batching{MaxBatch: simMaxBatch, Window: tr.latHi * 0.5},
	}
}

// run streams n population arrivals lazily through eng. With draw set,
// every draw from the population stream is timed; with offered set
// (len n), the i-th query is recorded as it arrived.
func (tr *traffic) run(eng *simq.Engine, seed int64, n int, draw *span, offered []sched.Query) (*simq.Result, error) {
	next, err := tr.pop.Labeled(seed)
	if err != nil {
		return nil, err
	}
	var cur workload.CohortArrival
	stream := func() (float64, bool) {
		var ok bool
		if draw != nil {
			t0 := time.Now()
			cur, ok = next()
			draw.since(t0)
		} else {
			cur, ok = next()
		}
		return cur.T, ok
	}
	return eng.RunProcess(n, stream, func(i int, _ float64) sched.Query {
		q := cur.Query
		q.ID = i
		if offered != nil {
			offered[i] = q
		}
		return q
	})
}

// checkResult verifies the engine's accounting identities on one run.
func checkResult(res *simq.Result) error {
	if res.Queries != res.Served+res.Dropped {
		return fmt.Errorf("queries %d != served %d + dropped %d", res.Queries, res.Served, res.Dropped)
	}
	if res.Dropped != res.DeadlineDrops+res.Rejected+res.Shed {
		return fmt.Errorf("dropped %d != deadline %d + rejected %d + shed %d",
			res.Dropped, res.DeadlineDrops, res.Rejected, res.Shed)
	}
	if len(res.Outcomes) != res.Queries {
		return fmt.Errorf("%d outcomes for %d queries", len(res.Outcomes), res.Queries)
	}
	return nil
}

// swapsPerKQ counts cache moves (scheduler swaps and window re-caches)
// per thousand queries.
func swapsPerKQ(res *simq.Result) float64 {
	swaps := 0
	for i := range res.Outcomes {
		if o := &res.Outcomes[i]; o.CacheSwapped || o.Recached {
			swaps++
		}
	}
	return 1000 * float64(swaps) / float64(res.Queries)
}

// simBench is the Simulate path: fresh fleets replaying the same seeded
// population. Host throughput is the quiet rate over runs; every run
// must reproduce the first run's Summary exactly.
type simBench struct {
	tr    *traffic
	seed  int64
	qps   []float64
	first *simq.Result
}

// turn simulates reps fresh runs.
func (b *simBench) turn(rep *report, reps int) error {
	for i := 0; i < reps; i++ {
		dep, err := deploySim()
		if err != nil {
			return err
		}
		eng, err := simq.FromCluster(dep.Cluster, b.tr.options(serving.NewLeastLoaded()))
		if err != nil {
			return err
		}
		runtime.GC()
		t0 := time.Now()
		res, err := b.tr.run(eng, b.seed, simQueries, nil, nil)
		el := time.Since(t0)
		if err != nil {
			return err
		}
		rep.attempted += int64(res.Queries)
		ok := rep.check(checkResult(res) == nil, "simulate: accounting: %v", checkResult(res))
		if b.first == nil {
			b.first = res
		} else {
			ok = rep.check(reflect.DeepEqual(b.first.Summary, res.Summary),
				"simulate: Summary differs between two runs of seed %d", b.seed) && ok
		}
		if !ok {
			rep.failed += int64(res.Queries)
		}
		b.qps = append(b.qps, float64(res.Queries)/el.Seconds())
	}
	return nil
}

func (b *simBench) finish(rep *report) {
	sum := b.first.Summary
	rep.set("sim_qps", "1/s", quietRate(b.qps))
	rep.set("slo_pct", "%", 100*sum.E2ESLO)
	rep.set("served_acc_pct", "%", sum.AvgAccuracy)
	rep.set("p99_e2e_ms", "ms", 1e3*sum.P99E2E)
	kq := swapsPerKQ(b.first)
	checkSwaps(rep, b.tr.spec, "simulate", kq)
	fmt.Printf("simulate: %d runs of %d queries, %.0f q/s (median %.0f), %.2f swaps/kq\n",
		len(b.qps), simQueries, quietRate(b.qps), median(b.qps), kq)
}

// pass is one accelerator pass of a run: the outcomes (indices into
// Result.Outcomes, in queue order) that one flush started together on
// one replica.
type pass struct {
	members []int
}

// passesOf regroups a run's served outcomes into the passes each replica
// executed, in execution order. Members of one flush share the replica
// and the start instant; a replica's flushes never share a start.
func passesOf(res *simq.Result, replicas int) ([][]pass, error) {
	byRep := make([][]int, replicas)
	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		if o.Dropped {
			continue
		}
		if o.Replica < 0 || o.Replica >= replicas {
			return nil, fmt.Errorf("outcome %d on replica %d of %d", i, o.Replica, replicas)
		}
		byRep[o.Replica] = append(byRep[o.Replica], i)
	}
	out := make([][]pass, replicas)
	for ri, idx := range byRep {
		sort.SliceStable(idx, func(a, b int) bool {
			return res.Outcomes[idx[a]].Start < res.Outcomes[idx[b]].Start
		})
		for k := 0; k < len(idx); {
			j := k + 1
			for j < len(idx) && res.Outcomes[idx[j]].Start == res.Outcomes[idx[k]].Start {
				j++
			}
			p := pass{members: idx[k:j]}
			if n := res.Outcomes[idx[k]].Batch; n != len(p.members) {
				return nil, fmt.Errorf("replica %d: pass at %g has %d members, outcome says batch %d",
					ri, res.Outcomes[idx[k]].Start, len(p.members), n)
			}
			out[ri] = append(out[ri], p)
			k = j
		}
	}
	return out, nil
}

// passQueries rebuilds what one flush handed the replica: the queries
// after load-aware debit, and the queries as they arrived.
func passQueries(res *simq.Result, offered []sched.Query, p pass, qs, os []sched.Query) ([]sched.Query, []sched.Query) {
	qs, os = qs[:0], os[:0]
	for _, m := range p.members {
		o := &res.Outcomes[m]
		os = append(os, offered[m])
		qs = append(qs, offered[m].Debit(o.Start-o.Arrival))
	}
	return qs, os
}

// accelPass is one accelerator simulation a run performed: a pass memo
// miss for (row, n) under the cached column col.
type accelPass struct {
	row, n, col int
	latency     float64
}

// replayServe plays a run's passes, replica by replica, through a fresh
// fleet's Replica.ServeVirtual / ServeBatchVirtualInto, timing each
// call, and checks that every replayed outcome matches the run. It
// returns the accelerator passes the run had to simulate: the first
// (row, n) after each cache change, which is where the serving layer's
// pass memo misses.
func replayServe(reps []*serving.Replica, res *simq.Result, offered []sched.Query, passes [][]pass, sp *span) ([]accelPass, error) {
	var misses []accelPass
	var qs, os []sched.Query
	var out []serving.Served
	for ri, rp := range passes {
		r := reps[ri]
		seen := map[[2]int]bool{}
		for _, p := range rp {
			var col int
			r.Inspect(func(s *serving.System) { col = s.Scheduler().CacheColumn() })
			qs, os = passQueries(res, offered, p, qs, os)
			degraded := res.Outcomes[p.members[0]].Degraded
			n := len(qs)
			if cap(out) < n {
				out = make([]serving.Served, n)
			}
			out = out[:n]
			var err error
			t0 := time.Now()
			if n == 1 {
				out[0], err = r.ServeVirtual(qs[0], os[0], degraded)
			} else {
				err = r.ServeBatchVirtualInto(qs, os, degraded, out)
			}
			sp.since(t0)
			if err != nil {
				return nil, err
			}
			swapped := false
			for k, m := range p.members {
				want := &res.Outcomes[m]
				if out[k].Row != want.Row || out[k].Latency != want.Latency {
					return nil, fmt.Errorf("replica %d: replay of query %d served row %d in %g s, run served row %d in %g s",
						ri, m, out[k].Row, out[k].Latency, want.Row, want.Latency)
				}
				swapped = swapped || out[k].CacheSwapped || out[k].Recached
			}
			key := [2]int{out[0].Row, n}
			if !seen[key] {
				seen[key] = true
				misses = append(misses, accelPass{row: out[0].Row, n: n, col: col, latency: out[0].Latency})
			}
			if swapped {
				clear(seen)
			}
		}
	}
	return misses, nil
}

// replaySched plays a run's decisions, replica by replica, through a
// fresh fleet's schedulers (Scheduler.Schedule / ScheduleBatch on the
// queries each flush handed the system, degrade rewrite included),
// timing each call and checking each decision against the run.
func replaySched(reps []*serving.Replica, res *simq.Result, offered []sched.Query, passes [][]pass, sp *span) error {
	degradePol := sched.StrictLatency
	var qs, os []sched.Query
	for ri, rp := range passes {
		var sc *sched.Scheduler
		var table *latencytable.Table
		reps[ri].Inspect(func(s *serving.System) { sc, table = s.Scheduler(), s.Table() })
		for _, p := range rp {
			qs, os = passQueries(res, offered, p, qs, os)
			if res.Outcomes[p.members[0]].Degraded {
				budget := table.MinLatency(sc.CacheColumn())
				for k := range qs {
					qs[k].MinAccuracy, qs[k].MaxLatency, qs[k].Policy = 0, budget, &degradePol
				}
			}
			var d sched.Decision
			var err error
			t0 := time.Now()
			if len(qs) == 1 {
				d, err = sc.Schedule(qs[0])
			} else {
				d, err = sc.ScheduleBatch(qs)
			}
			sp.since(t0)
			if err != nil {
				return err
			}
			if want := res.Outcomes[p.members[0]].Row; d.SubNet != want {
				return fmt.Errorf("replica %d: scheduler replay chose row %d, run served row %d", ri, d.SubNet, want)
			}
		}
	}
	return nil
}

// replayAccel re-runs every accelerator pass the run simulated through a
// fresh Simulator, timing each ServeBatchInto and checking its latency.
func replayAccel(cfg accel.Config, table *latencytable.Table, misses []accelPass, sp *span) error {
	sim, err := accel.NewSimulator(cfg)
	if err != nil {
		return err
	}
	var rep accel.Report
	cur := -1
	for _, m := range misses {
		if m.col != cur {
			if err := sim.SetCachedShared(table.Graphs[m.col]); err != nil {
				return err
			}
			cur = m.col
		}
		t0 := time.Now()
		err := sim.ServeBatchInto(&rep, table.SubNets[m.row], m.n)
		sp.since(t0)
		if err != nil {
			return err
		}
		if got := rep.Total(); got != m.latency {
			return fmt.Errorf("accel replay of row %d x%d on column %d: %g s, run served %g s", m.row, m.n, m.col, got, m.latency)
		}
	}
	return nil
}

// timedRouter wraps the engine's router with a span around each pick.
type timedRouter struct {
	serving.Router
	sp *span
}

func (t *timedRouter) Pick(q sched.Query, reps []*serving.Replica) int {
	t0 := time.Now()
	i := t.Router.Pick(q, reps)
	t.sp.since(t0)
	return i
}

// traceSim is the traced pass of the Simulate path: one run with spans
// around the population draws and the router, then the run's recorded
// sequence replayed through the serving, sched and accel layers.
func traceSim(rep *report, tr *traffic, seed int64) error {
	dep, err := deploySim()
	if err != nil {
		return err
	}
	var draw, route, serve, decide, passSp span
	eng, err := simq.FromCluster(dep.Cluster, tr.options(&timedRouter{Router: serving.NewLeastLoaded(), sp: &route}))
	if err != nil {
		return err
	}
	offered := make([]sched.Query, simQueries)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	res, err := tr.run(eng, seed, simQueries, &draw, offered)
	runNs := int64(time.Since(t0))
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	rep.attempted += int64(res.Queries)
	if !rep.check(checkResult(res) == nil, "simulate traced: accounting: %v", checkResult(res)) {
		rep.failed += int64(res.Queries)
	}

	passes, err := passesOf(res, simReplicas)
	if err != nil {
		return err
	}
	fresh, err := deploySim()
	if err != nil {
		return err
	}
	misses, err := replayServe(fresh.Cluster.Replicas(), res, offered, passes, &serve)
	if err != nil {
		return err
	}
	fresh, err = deploySim()
	if err != nil {
		return err
	}
	if err := replaySched(fresh.Cluster.Replicas(), res, offered, passes, &decide); err != nil {
		return err
	}
	var cfg accel.Config
	var table *latencytable.Table
	fresh.Cluster.Replicas()[0].Inspect(func(s *serving.System) { cfg, table = s.Simulator().Config(), s.Table() })
	if err := replayAccel(cfg, table, misses, &passSp); err != nil {
		return err
	}

	n := float64(res.Queries)
	feasible, hit := 0, 0.0
	for i := range res.Outcomes {
		if o := &res.Outcomes[i]; !o.Dropped {
			hit += o.HitRatio
			if o.Feasible {
				feasible++
			}
		}
	}
	rep.set("trace.sim_qps", "1/s", n/(float64(runNs)/1e9))
	rep.set("workload.draw_ns", "ns", draw.perCall())
	rep.set("serving.route_ns", "ns", route.perCall())
	rep.set("simq.run_ns_per_q", "ns", float64(runNs)/n)
	rep.set("serving.serve_ns_per_pass", "ns", serve.perCall())
	rep.set("sched.decide_ns", "ns", decide.perCall())
	rep.set("accel.pass_ns", "ns", passSp.perCall())
	rep.set("accel.passes_per_kq", "count", 1000*float64(len(misses))/n)
	rep.set("simq.self_ns_per_q", "ns", float64(selfNs(runNs, draw.ns, route.ns, serve.ns))/n)
	rep.set("serving.cache_swaps_per_kq", "count", swapsPerKQ(res))
	checkSwaps(rep, tr.spec, "simulate traced", swapsPerKQ(res))
	rep.set("serving.avg_batch", "count", float64(res.Served)/float64(serve.calls))
	rep.set("serving.pb_hit_ratio", "ratio", hit/float64(res.Served))
	rep.set("sched.feasible_pct", "%", 100*float64(feasible)/float64(res.Served))
	rep.set("simq.drop_pct", "%", 100*float64(res.Dropped)/n)
	rep.set("simq.degraded_pct", "%", 100*float64(res.Degraded)/n)
	rep.set("runtime.alloc_mb_per_kq", "MB", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/(n/1000))
	rep.set("runtime.gc_cycles", "count", float64(m1.NumGC-m0.NumGC))
	return nil
}
