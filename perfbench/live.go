package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sushi/internal/core"
	"sushi/internal/sched"
	"sushi/internal/server"
)

// The live path: a server.New handler on a loopback listener in this
// process, in front of a 4-replica fleet behind the workload's router,
// sent the workload's requests in turn.
const (
	liveReplicas = 4
	// liveRate is the open-loop phase's fixed request rate, about a
	// fifth of the closed-loop rate on a 2-vCPU host. At 10,000/s a
	// busy shared host let the generator fall 1-4 ms behind, and the
	// median then measured the queue rather than the server.
	liveRate = 5000.0
	// liveBatchLines is the NDJSON line count of one /v1/serve/batch body.
	liveBatchLines = 64
	// liveWindow is a sampling window: a closed-loop phase counts the
	// completions of each window, the open-loop phase takes each
	// window's median latency, and the run reports the quiet sample.
	liveWindow = 100 * time.Millisecond
	// fixedBudgetMS is the latency budget of a stationary workload's
	// constraint, in milliseconds.
	fixedBudgetMS = 100
)

// fixedQuery is a stationary workload's one constraint: an accuracy
// floor just under the accuracy of the frontier SubNet the seed picks,
// and a budget of fixedBudgetMS, which every SubNet meets even after the
// simulated fleet's queueing debit.
func fixedQuery(dep *core.ClusterDeployment, seed int64) server.ServeRequest {
	sn := dep.Frontier[int(uint64(seed)%uint64(len(dep.Frontier)))]
	return server.ServeRequest{MinAccuracy: math.Floor(sn.Accuracy*10-0.5) / 10, MaxLatencyMS: fixedBudgetMS}
}

// liveStack is a running loopback server and its client.
type liveStack struct {
	dep    *core.ClusterDeployment
	srv    *http.Server
	served chan error
	url    string
	client *http.Client
	// ones are the /v1/serve bodies and batches the /v1/serve/batch
	// bodies, sent in turn; next and nextBatch pick the next one.
	ones, batches   [][]byte
	next, nextBatch atomic.Uint64
	swaps           atomic.Int64
	queries         atomic.Int64
	// handler and batchHandler are the server-side spans (traced pass).
	handler, batchHandler lockedSpan
}

// lockedSpan is a span several goroutines add to.
type lockedSpan struct {
	mu sync.Mutex
	s  span
}

func (l *lockedSpan) since(t0 time.Time) {
	d := time.Since(t0)
	l.mu.Lock()
	l.s.add(d)
	l.mu.Unlock()
}

func (l *lockedSpan) get() span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.s
}

func deployLive(router string) (*core.ClusterDeployment, error) {
	return core.DeployCluster(core.DeployOptions{Workload: core.MobileNetV3, Policy: sched.StrictLatency},
		core.ClusterOptions{Replicas: liveReplicas, Router: router})
}

// startLive deploys a fresh fleet for tr and serves it on a loopback
// port. With trace set, the handler is wrapped in spans.
func startLive(tr *traffic, trace bool) (*liveStack, error) {
	dep, err := deployLive(tr.spec.liveRouter)
	if err != nil {
		return nil, err
	}
	ls := &liveStack{dep: dep, served: make(chan error, 1)}
	for _, q := range tr.live {
		b, err := json.Marshal(q)
		if err != nil {
			return nil, err
		}
		ls.ones = append(ls.ones, b)
	}
	// Batch k carries requests k*liveBatchLines onwards, wrapping round.
	for k := 0; k*liveBatchLines < len(ls.ones); k++ {
		var b []byte
		for j := 0; j < liveBatchLines; j++ {
			b = append(append(b, ls.ones[(k*liveBatchLines+j)%len(ls.ones)]...), '\n')
		}
		ls.batches = append(ls.batches, b)
	}
	var h http.Handler = server.New(dep)
	if trace {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t0 := time.Now()
			inner.ServeHTTP(w, r)
			if r.URL.Path == "/v1/serve/batch" {
				ls.batchHandler.since(t0)
			} else {
				ls.handler.since(t0)
			}
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { ls.served <- ls.srv.Serve(ln) }()
	ls.url = "http://" + ln.Addr().String()
	n := nproc()
	ls.client = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConnsPerHost: n,
			DisableCompression:  true,
		},
	}
	return ls, nil
}

// stop shuts the server down and waits until it has stopped serving.
func (ls *liveStack) stop() error {
	ls.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ls.srv.Shutdown(ctx)
	if serr := <-ls.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// sendOne posts the next /v1/serve body.
func (ls *liveStack) sendOne() error {
	return ls.post("/v1/serve", ls.ones[(ls.next.Add(1)-1)%uint64(len(ls.ones))], 1)
}

// sendBatch posts the next /v1/serve/batch body.
func (ls *liveStack) sendBatch() error {
	return ls.post("/v1/serve/batch", ls.batches[(ls.nextBatch.Add(1)-1)%uint64(len(ls.batches))], liveBatchLines)
}

// serveReply is the part of a /v1/serve response the benchmark checks.
type serveReply struct {
	SubNet       string `json:"subnet"`
	CacheSwapped bool   `json:"cache_swapped"`
}

// post sends one request and checks the reply: status 200 and, for each
// of lines NDJSON lines, parseable JSON naming a SubNet.
func (ls *liveStack) post(path string, body []byte, lines int) error {
	resp, err := ls.client.Post(ls.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	got := 0
	for sc.Scan() {
		var r serveReply
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return fmt.Errorf("%s: reply line %d: %w", path, got+1, err)
		}
		if r.SubNet == "" {
			return fmt.Errorf("%s: reply line %d names no SubNet", path, got+1)
		}
		if r.CacheSwapped {
			ls.swaps.Add(1)
		}
		got++
	}
	if got != lines {
		return fmt.Errorf("%s: %d reply lines for %d queries", path, got, lines)
	}
	ls.queries.Add(int64(lines))
	return nil
}

// phase is one load phase's request accounting.
type phase struct {
	name                         string
	attempted, succeeded, failed int64
	firstErr                     error
}

func (p *phase) record(err error) {
	p.attempted++
	if err != nil {
		p.failed++
		if p.firstErr == nil {
			p.firstErr = err
		}
		return
	}
	p.succeeded++
}

func (p *phase) merge(o *phase) {
	p.attempted += o.attempted
	p.succeeded += o.succeeded
	p.failed += o.failed
	if p.firstErr == nil {
		p.firstErr = o.firstErr
	}
}

// account prints the phase and adds it to the run's counts; a batch
// request stands for lines queries.
func (p *phase) account(rep *report, lines int64) {
	fmt.Printf("live %s: attempted %d, succeeded %d, failed %d requests\n", p.name, p.attempted, p.succeeded, p.failed)
	rep.attempted += p.attempted * lines
	rep.failed += p.failed * lines
	rep.check(p.failed == 0, "live %s: %d of %d requests failed, first: %v", p.name, p.failed, p.attempted, p.firstErr)
}

// openLoop sends /v1/serve at liveRate for d, the bodies in turn.
// Request i is due at start + i/rate and goes out on client i mod
// clients; its latency runs from the due time, so a stall delays every
// later request too. A failed request has infinite latency. It returns
// every request's latency and the generator's lateness (send time minus
// due time), in milliseconds and in due order.
func (ls *liveStack) openLoop(d time.Duration) (lat, late []float64, p phase) {
	n := nproc()
	total := int(d.Seconds() * liveRate)
	lat = make([]float64, total)
	late = make([]float64, total)
	phases := make([]phase, n)
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < total; i += n {
				due := start.Add(time.Duration(float64(i) / liveRate * float64(time.Second)))
				waitUntil(due)
				sent := time.Now()
				err := ls.sendOne()
				lat[i] = float64(time.Since(due)) / 1e6
				if err != nil {
					lat[i] = math.Inf(1)
				}
				late[i] = float64(sent.Sub(due)) / 1e6
				phases[w].record(err)
			}
		}(w)
	}
	wg.Wait()
	p.name = "open-loop /v1/serve"
	for w := range phases {
		p.merge(&phases[w])
	}
	return lat, late, p
}

// windowMedians splits due-ordered latencies into liveWindow-long
// windows of the open-loop schedule and returns each window's median.
func windowMedians(lat []float64) []float64 {
	per := int(liveRate * liveWindow.Seconds())
	var out []float64
	for k := 0; k+per <= len(lat); k += per {
		out = append(out, median(lat[k:k+per]))
	}
	return out
}

// waitUntil returns at t: it sleeps while more than 2 ms remain (timer
// wake-ups can overshoot by about a millisecond) and yields the
// processor in a loop for the rest.
func waitUntil(t time.Time) {
	if d := time.Until(t); d > 2*time.Millisecond {
		time.Sleep(d - 2*time.Millisecond)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// closedLoop keeps every client sending send() back to back for d. It
// returns the completed requests per second of each liveWindow window,
// and the clients' summed request time (from before the request to
// after its reply was read and checked).
func closedLoop(d time.Duration, send func() error) (rates []float64, client span, p phase) {
	n := nproc()
	slices := int(d / liveWindow)
	if slices < 1 {
		slices = 1
	}
	counts := make([][]int64, n)
	phases := make([]phase, n)
	spans := make([]span, n)
	start := time.Now()
	end := start.Add(time.Duration(slices) * liveWindow)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		counts[w] = make([]int64, slices)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				t0 := time.Now()
				if !t0.Before(end) {
					return
				}
				err := send()
				spans[w].since(t0)
				phases[w].record(err)
				if s := int(time.Since(start) / liveWindow); err == nil && s < slices {
					counts[w][s]++
				}
			}
		}(w)
	}
	wg.Wait()
	for s := 0; s < slices; s++ {
		var c int64
		for w := 0; w < n; w++ {
			c += counts[w][s]
		}
		rates = append(rates, float64(c)/liveWindow.Seconds())
	}
	for w := 0; w < n; w++ {
		p.merge(&phases[w])
		client.ns += spans[w].ns
		client.calls += spans[w].calls
	}
	return rates, client, p
}

// liveBench is the live serving path: open-loop /v1/serve at liveRate,
// closed-loop /v1/serve, and closed-loop /v1/serve/batch, against one
// server that stays up for the whole run.
type liveBench struct {
	ls                  *liveStack
	spec                workloadSpec
	p50s, rps, bqps     []float64
	late                []float64
	open, closed, batch phase
}

func newLiveBench(tr *traffic) (*liveBench, error) {
	ls, err := startLive(tr, false)
	if err != nil {
		return nil, err
	}
	return &liveBench{ls: ls, spec: tr.spec,
		open:   phase{name: "open-loop /v1/serve"},
		closed: phase{name: "closed-loop /v1/serve"},
		batch:  phase{name: "closed-loop /v1/serve/batch"},
	}, nil
}

// turn runs each phase for windows sampling windows.
func (b *liveBench) turn(windows int) {
	d := time.Duration(windows) * liveWindow
	lat, late, p := b.ls.openLoop(d)
	b.p50s = append(b.p50s, windowMedians(lat)...)
	b.late = append(b.late, late...)
	b.open.merge(&p)
	rates, _, p := closedLoop(d, b.ls.sendOne)
	b.rps = append(b.rps, rates...)
	b.closed.merge(&p)
	rates, _, p = closedLoop(d, b.ls.sendBatch)
	for _, r := range rates {
		b.bqps = append(b.bqps, r*liveBatchLines)
	}
	b.batch.merge(&p)
}

// finish stops the server and reports the path.
func (b *liveBench) finish(rep *report) error {
	err := b.ls.stop()
	b.open.account(rep, 1)
	b.closed.account(rep, 1)
	b.batch.account(rep, liveBatchLines)
	rep.set("http_rps", "1/s", quietRate(b.rps))
	rep.set("http_p50_ms", "ms", quietTime(b.p50s))
	rep.set("http_batch_qps", "1/s", quietRate(b.bqps))
	kq := 1000 * float64(b.ls.swaps.Load()) / float64(b.ls.queries.Load())
	checkSwaps(rep, b.spec, "live", kq)
	fmt.Printf("live: %.0f req/s closed-loop, p50 %.3f ms at %.0f req/s (generator late p50 %.3f p99 %.3f ms), %.0f queries/s batched, %.3f swaps/kq\n",
		quietRate(b.rps), quietTime(b.p50s), liveRate, median(b.late), quantile(b.late, 0.99), quietRate(b.bqps), kq)
	return err
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// traceLive is the traced pass of the live path: the same three phases
// with spans around the client's requests and the server's handler, and
// Cluster.Serve driven directly with the same queries and no HTTP.
func traceLive(rep *report, tr *traffic, budget time.Duration) (err error) {
	ls, err := startLive(tr, true)
	if err != nil {
		return err
	}
	defer func() {
		if serr := ls.stop(); err == nil {
			err = serr
		}
	}()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	phaseD := budget / 4
	lat, late, op := ls.openLoop(phaseD)
	op.name = "traced open-loop /v1/serve"
	op.account(rep, 1)
	handler0 := ls.handler.get()
	rates, client, cp := closedLoop(phaseD, ls.sendOne)
	cp.name = "traced closed-loop /v1/serve"
	cp.account(rep, 1)
	handler := ls.handler.get()
	handler.ns -= handler0.ns
	handler.calls -= handler0.calls
	_, _, bp := closedLoop(phaseD, ls.sendBatch)
	bp.name = "traced closed-loop /v1/serve/batch"
	bp.account(rep, liveBatchLines)
	runtime.ReadMemStats(&m1)
	requests := float64(op.attempted + cp.attempted + bp.attempted)
	queries := float64(ls.queries.Load())
	swaps := float64(ls.swaps.Load())

	qs := make([]sched.Query, len(tr.live))
	for i, r := range tr.live {
		qs[i] = sched.Query{MinAccuracy: r.MinAccuracy, MaxLatency: r.MaxLatencyMS * 1e-3}
	}
	cluster, err := clusterServe(ls.dep, qs, phaseD)
	if err != nil {
		return err
	}
	batch := ls.batchHandler.get()

	rep.set("trace.http_rps", "1/s", quietRate(rates))
	rep.set("http.client_us", "us", client.perCall()/1e3)
	rep.set("server.handler_us", "us", handler.perCall()/1e3)
	rep.set("net.http_us", "us", float64(selfNs(int64(client.perCall()), int64(handler.perCall())))/1e3)
	rep.set("serving.cluster_serve_us", "us", cluster.perCall()/1e3)
	rep.set("server.self_us", "us", float64(selfNs(int64(handler.perCall()), int64(cluster.perCall())))/1e3)
	rep.set("server.batch_us_per_q", "us", batch.perCall()/liveBatchLines/1e3)
	rep.set("http.p99_ms", "ms", quantile(lat, 0.99))
	rep.set("http.gen_late_ms", "ms", mean(late))
	rep.set("serving.live_cache_swaps_per_kq", "count", 1000*swaps/queries)
	checkSwaps(rep, tr.spec, "live traced", 1000*swaps/queries)
	rep.set("runtime.gc_cycles_per_kreq", "count", float64(m1.NumGC-m0.NumGC)/(requests/1000))
	return nil
}

// clusterServe drives Cluster.Serve with qs, in turn, from every client
// goroutine for d, without HTTP, and returns the per-call span.
func clusterServe(dep *core.ClusterDeployment, qs []sched.Query, d time.Duration) (span, error) {
	var next atomic.Uint64
	n := nproc()
	spans := make([]span, n)
	errs := make([]error, n)
	end := time.Now().Add(d)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for time.Now().Before(end) {
				q := qs[(next.Add(1)-1)%uint64(len(qs))]
				t0 := time.Now()
				res, err := dep.Cluster.Serve(ctx, q)
				spans[w].since(t0)
				if err == nil && res.SubNet == "" {
					err = errors.New("Cluster.Serve returned no SubNet")
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var total span
	for w := 0; w < n; w++ {
		if errs[w] != nil {
			return span{}, errs[w]
		}
		total.ns += spans[w].ns
		total.calls += spans[w].calls
	}
	return total, nil
}
