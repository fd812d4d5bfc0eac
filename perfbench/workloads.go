package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"syscall"
	"time"

	"sushi/internal/accel"
	"sushi/internal/core"
	"sushi/internal/infer"
	"sushi/internal/latencytable"
	"sushi/internal/server"
	"sushi/internal/supernet"
	"sushi/internal/tensor"
)

// Every run measures all three paths, so that every declared metric is
// measured on every workload, and every run follows the same schedule:
// a workload chooses the traffic the paths carry (see newTraffic), not
// how much of each path a run measures. A run cycles through the paths
// in turns, so each path's samples spread over the whole run, and lasts
// until the next turn would overrun the measuring time. A turn runs
// turnSimRuns fresh simulated runs and turnLiveWindows windows of each
// live phase, and forwards the whole frontier at batch 1; every other
// turn, starting with the first, also forwards it at batch 4, which
// costs about four batch-1 passes. So every SubNet gets the same number
// of samples at each batch size.
const (
	turnSimRuns     = 3
	turnLiveWindows = 4
	// setupProbes is how many fresh processes time a cold set-up in a
	// run; the run reports their median. The probes are paced evenly
	// over the run, between the paths' steps, so they see the same
	// host as the rest of the run.
	setupProbes = 11
)

// workloadSpec is what sets one workload's traffic apart.
type workloadSpec struct {
	// moving: the constraints spread, so the cached SubGraph must keep
	// moving on every path; otherwise one fixed constraint keeps it put.
	moving bool
	// liveRouter is the live fleet's router.
	liveRouter string
}

var workloads = map[string]workloadSpec{
	// Cohort budgets on every path. The live fleet uses the simulated
	// fleet's router: behind the affinity router each replica would see
	// one constraint class and the cache would stay put.
	"sim-cohorts": {moving: true, liveRouter: core.RouterLeastLoaded},
	// One fixed constraint on every path, in front of an affinity fleet.
	"live-http": {moving: false, liveRouter: core.RouterAffinity},
}

// checkSwaps is the contrast check: the cache must move at least 10
// times per 1000 queries on a moving workload's path and less than once
// on a stationary one's. If an edit removes the reason a workload
// exists, the run fails.
func checkSwaps(rep *report, spec workloadSpec, path string, kq float64) {
	if spec.moving {
		rep.check(kq >= 10, "%s: %.2f cache swaps per 1000 queries, want >= 10 (the workload no longer moves the cached SubGraph)", path, kq)
	} else {
		rep.check(kq < 1, "%s: %.2f cache swaps per 1000 queries, want < 1 (the cached column no longer stays put)", path, kq)
	}
}

func mobileNetFrontier() (*supernet.SuperNet, []*supernet.SubNet, error) {
	super, err := core.BuildSuperNet(core.MobileNetV3)
	if err != nil {
		return nil, nil, err
	}
	fr, err := super.Frontier()
	return super, fr, err
}

// measure runs every path of one workload into rep: untraced, the
// end-to-end metrics; traced, the per-layer metrics.
func measure(rep *report, name string, seed int64, seconds time.Duration, trace bool) error {
	spec, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if trace {
		// Table builds are memoized process-wide, so the set-up layers
		// are timed first, while they are still cold.
		if err := traceSetup(rep); err != nil {
			return err
		}
	}
	tr, err := newTraffic(spec, seed)
	if err != nil {
		return err
	}
	super, frontier, err := mobileNetFrontier()
	if err != nil {
		return err
	}
	if trace {
		if err := traceSim(rep, tr, seed); err != nil {
			return fmt.Errorf("simulate traced: %w", err)
		}
		if err := traceLive(rep, tr, seconds/5); err != nil {
			return fmt.Errorf("live traced: %w", err)
		}
		if err := traceForward(rep, super, frontier); err != nil {
			return fmt.Errorf("forward traced: %w", err)
		}
		return nil
	}

	sb := &simBench{tr: tr, seed: seed}
	lb, err := newLiveBench(tr)
	if err != nil {
		return err
	}
	defer func() {
		if lb != nil {
			// Only reached when the run already failed; that error wins.
			_ = lb.ls.stop()
		}
	}()
	fb, err := newFwdBench(rep, super, frontier)
	if err != nil {
		return err
	}
	defer fb.close()
	var setup []float64
	start := time.Now()
	// probe runs the set-up probes that are due after the share of the
	// measuring time that has passed.
	probe := func(share float64) error {
		for len(setup) < setupProbes && float64(len(setup)) < share*setupProbes {
			s, err := spawnSetupProbe(rep)
			if err != nil {
				return err
			}
			setup = append(setup, s)
		}
		return nil
	}
	due := func() error { return probe(float64(time.Since(start)) / float64(seconds)) }
	var b4 time.Duration
	for turns := 0; ; turns++ {
		if el := time.Since(start); turns > 0 && el+nextTurn(el, b4, turns) > seconds {
			break
		}
		steps := []func() error{
			func() error { return wrap("simulate", sb.turn(rep, turnSimRuns)) },
			func() error { lb.turn(turnLiveWindows); return nil },
			func() error { return wrap("forward", fb.sweep(rep, 1)) },
		}
		if turns%2 == 0 {
			steps = append(steps, func() error {
				t0 := time.Now()
				err := fb.sweep(rep, fwdBatch)
				b4 += time.Since(t0)
				return wrap("forward", err)
			})
		}
		for _, step := range steps {
			if err := due(); err != nil {
				return err
			}
			if err := step(); err != nil {
				return err
			}
		}
	}
	if err := probe(1); err != nil {
		return err
	}
	rep.set("setup_s", "s", median(setup))
	sb.finish(rep)
	err = lb.finish(rep)
	lb = nil
	if err != nil {
		return fmt.Errorf("live: %w", err)
	}
	fb.finish(rep)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return err
	}
	rep.set("peak_rss_mb", "MB", float64(ru.Maxrss)/1024) // Maxrss is in KiB on Linux
	fmt.Printf("set-up: %d probes, median %.3f s (min %.3f, max %.3f)\n",
		len(setup), median(setup), quantile(setup, 0), quantile(setup, 1))
	return nil
}

// wrap prefixes a path's error with the path's name.
func wrap(path string, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// probeResult is what a set-up probe process prints.
type probeResult struct {
	Seconds float64 `json:"seconds"`
}

// setupProbe is the body of a probe process: a cold set-up of what the
// three paths need — deploy (with its latency table build), a listening
// HTTP server answering one request, and the first forward — timed
// from start to finish.
func setupProbe() error {
	t0 := time.Now()
	dep, err := deployLive(core.RouterAffinity)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: server.New(dep), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	eng := infer.NewEngine(infer.NewWeightStore(dep.Super, fwdWeightSeed))
	eng.SetWorkers(nproc())
	var out tensor.Int8
	in := tensor.RandomInt8(tensor.Shape{N: 1, C: 3, H: 224, W: 224}, fwdImageSeed)
	if err := eng.ForwardBatchInto(dep.Frontier[0], in, 1, &out); err != nil {
		return err
	}
	el := time.Since(t0)
	eng.Close()
	if err := srv.Close(); err != nil {
		return err
	}
	<-served
	ds, err := storedDigests()
	if err != nil {
		return err
	}
	if got := digest(out.Data); got != ds[dep.Frontier[0].Name] {
		return fmt.Errorf("set-up probe: first forward digest %s does not match", got)
	}
	return json.NewEncoder(os.Stdout).Encode(probeResult{Seconds: el.Seconds()})
}

// spawnSetupProbe runs one set-up probe process and returns its set-up time
// in seconds.
func spawnSetupProbe(rep *report) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "-setup-probe")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	rep.attempted++
	if err != nil {
		rep.failed++
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	var r probeResult
	if err := json.Unmarshal(out, &r); err != nil {
		rep.failed++
		return 0, fmt.Errorf("set-up probe output %q: %w", out, err)
	}
	return r.Seconds, nil
}

// traceSetup times the set-up layers cold, on the process's first call:
// the latency table build through latencytable's public functions, then
// the first core.DeployCluster.
func traceSetup(rep *report) error {
	super, fr, err := mobileNetFrontier()
	if err != nil {
		return err
	}
	cfg := accel.ZCU104()
	t0 := time.Now()
	graphs, err := latencytable.Candidates(super, fr, latencytable.CandidateOptions{
		Budget: cfg.PBBytes, Count: 16, Seed: 1, Strategies: []latencytable.Strategy{latencytable.TailFirst},
	})
	if err != nil {
		return err
	}
	if _, err := latencytable.Build(cfg, fr, graphs); err != nil {
		return err
	}
	rep.set("latencytable.build_ms", "ms", float64(time.Since(t0))/1e6)
	t0 = time.Now()
	if _, err := deployLive(core.RouterAffinity); err != nil {
		return err
	}
	rep.set("core.deploy_ms", "ms", float64(time.Since(t0))/1e6)
	return nil
}
