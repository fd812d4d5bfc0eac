package core

import (
	"sushi/internal/serving"
	"sushi/internal/simq"
)

// RouterKind names a cluster dispatch policy (one of the Router*
// constants).
type RouterKind string

// SimOptions configures one virtual-time run of ClusterDeployment.Simulate.
type SimOptions struct {
	// QueueCap bounds each replica's wait queue (0 = unbounded);
	// Admission picks the overflow policy (default simq.Reject).
	QueueCap  int
	Admission simq.Admission
	// LoadAware debits each query's latency budget by its queueing
	// delay before scheduling; Drop abandons queries whose budget is
	// exhausted before service starts.
	LoadAware, Drop bool
	// Router is the dispatch policy for the simulated run; empty
	// defaults to the cluster's own configured policy. A fresh router
	// instance is built per call, so repeated simulations over fresh
	// deployments reproduce exactly.
	Router RouterKind
	// RouterSeed seeds the random router.
	RouterSeed int64
	// Batching is the virtual-time batch former (B queries per flush,
	// window in virtual seconds). The zero value inherits the cluster's
	// batch policy (ClusterOptions.Batch, sushi.WithBatching; the
	// wall-clock window carried over numerically); set MaxBatch to 1 to
	// force an unbatched run on a batched cluster.
	Batching simq.Batching
	// Autoscale overrides the deployment's elastic-fleet configuration
	// for this run (nil inherits ClusterOptions.Autoscale, i.e.
	// sushi.WithAutoscale; set Min == Max to pin the fleet for a control
	// run). Max must not exceed the deployed replica count — Simulate
	// cannot boot replicas the deployment never built.
	Autoscale *AutoscaleOptions
	// Shards opts into the engine's parallel mode: replicas are
	// partitioned across up to Shards goroutines advancing in
	// conservative virtual-time windows, with results bit-identical to
	// the sequential engine at any shard count. Requires a shard-safe
	// router (round-robin or random) and a fixed (non-autoscaled)
	// fleet; 0 or 1 is the sequential engine.
	Shards int
}

// Simulate plays a timed query stream through the deployment's
// replicas in virtual time on the simq discrete-event engine. It is
// the one translation from SimOptions to an engine: every rejection of
// the options (router, autoscale override, queue, batching, shards) is
// a typed *OptionError, so callers can tell bad options from failures
// of the run itself (an unknown model in the stream, a scheduling
// error).
func (d *ClusterDeployment) Simulate(qs []serving.TimedQuery, opt SimOptions) (*simq.Result, error) {
	kind := string(opt.Router)
	if kind == "" {
		kind = d.Cluster.RouterName()
	}
	router, err := NewRouter(kind, opt.RouterSeed)
	if err != nil {
		return nil, err
	}
	asc := d.Autoscale
	if opt.Autoscale != nil {
		if asc, err = ResolveAutoscale(opt.Autoscale); err != nil {
			return nil, err
		}
	}
	eng, err := simq.FromCluster(d.Cluster, simq.Options{
		QueueCap:  opt.QueueCap,
		Admission: opt.Admission,
		LoadAware: opt.LoadAware,
		Drop:      opt.Drop,
		Router:    router,
		Batching:  simq.ResolveBatching(opt.Batching, d.Cluster.BatchPolicy()),
		Autoscale: asc,
		Shards:    opt.Shards,
	})
	if err != nil {
		return nil, &OptionError{Field: "SimOptions", Reason: err.Error()}
	}
	return eng.Run(qs)
}
