package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"sushi"
	"sushi/internal/core"
)

// TestSimulateHTTPMatchesLibrary sends one trace through POST
// /v1/simulate and through sushi.Cluster.Simulate on two identical
// fresh deployments: both surfaces run the same options-to-engine
// translation, so every field SimulateResponse reports must agree.
func TestSimulateHTTPMatchesLibrary(t *testing.T) {
	const n = 200
	arr, err := sushi.Poisson{Rate: 900}.Times(n, 5)
	if err != nil {
		t.Fatal(err)
	}
	points := make([]TracePoint, n)
	tqs := make([]sushi.TimedQuery, n)
	for i := range points {
		points[i] = TracePoint{ArrivalS: arr[i], MinAccuracy: float64(60 + 5*(i%3)), MaxLatencyMS: float64(4 + 3*(i%4))}
		tqs[i] = sushi.TimedQuery{
			Query:   sushi.Query{ID: i, MinAccuracy: points[i].MinAccuracy, MaxLatency: points[i].MaxLatencyMS * 1e-3},
			Arrival: arr[i],
		}
	}
	trace, err := json.Marshal(points)
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"process": "trace", "trace": %s, "queue": 3, "admission": "degrade",
		"load_aware": true, "drop": true, "max_batch": 4, "batch_window_ms": 2}`, trace)
	resp, viaHTTP := postSimulate(t, testServer(t, 2, core.RouterLeastLoaded), body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	c, err := sushi.NewCluster(sushi.Options{Workload: sushi.MobileNetV3},
		sushi.WithReplicas(2), sushi.WithRouter(sushi.LeastLoaded))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Simulate(tqs, sushi.SimOptions{
		QueueCap:  3,
		Admission: sushi.AdmitDegrade,
		LoadAware: true,
		Drop:      true,
		Batching:  sushi.Batching{MaxBatch: 4, Window: 2e-3},
	})
	if err != nil {
		t.Fatal(err)
	}

	if viaHTTP.Served == 0 || viaHTTP.Batches == 0 {
		t.Fatalf("run exercises too little to compare: %+v", viaHTTP)
	}
	got, _ := json.Marshal(viaHTTP)
	want, _ := json.Marshal(simulateResponse(res))
	if !bytes.Equal(got, want) {
		t.Errorf("HTTP and library runs diverged:\n  http    %s\n  library %s", got, want)
	}
}

// TestSimulateBodyLimit: a /v1/simulate body over maxBody is
// refused with 413 while it is read.
func TestSimulateBodyLimit(t *testing.T) {
	dep, err := core.DeployCluster(core.DeployOptions{Workload: core.MobileNetV3}, core.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	body := `{"process": "trace", "trace": [` + strings.Repeat(" ", maxBody) + `]}`
	rec := httptest.NewRecorder()
	New(dep).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413 (%s)", rec.Code, rec.Body)
	}
}

// TestSimulateTracePointCap: a body under the size limit packed with
// empty points is refused once the trace passes maxQueries
// points, before millions of them are allocated.
func TestSimulateTracePointCap(t *testing.T) {
	dep, err := core.DeployCluster(core.DeployOptions{Workload: core.MobileNetV3}, core.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := (maxBody - 64) / 3
	body := `{"process": "trace", "trace": [` + strings.Repeat("{},", n-1) + `{}]}`
	srv := New(dep)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body)))
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("%d-point trace: status %d, want 400 (%s)", n, rec.Code, rec.Body)
	}
	// Decoding all n points allocates over 1 GB; stopping at the cap
	// costs the buffered body plus maxQueries points.
	if got := after.TotalAlloc - before.TotalAlloc; got > 128<<20 {
		t.Errorf("refusing a %d-point trace allocated %d MB, want under 128 MB", n, got>>20)
	}
}

// TestServeBodyCaps: live serve bodies past maxBody, and batches past
// maxQueries lines, are refused with 413 while they are read — before
// any query runs, even when the first lines are valid.
func TestServeBodyCaps(t *testing.T) {
	for _, tc := range []struct {
		name, path, body string
	}{
		{"oversized single body", "/v1/serve",
			`{"min_accuracy": 78` + strings.Repeat(" ", maxBody) + `}`},
		{"oversized batch body", "/v1/serve/batch",
			`{"min_accuracy": 78}` + "\n" + strings.Repeat(" ", maxBody) + `{"min_accuracy": 76}`},
		{"batch over the query cap", "/v1/serve/batch",
			strings.Repeat("{}\n", maxQueries+1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dep, err := core.DeployCluster(core.DeployOptions{Workload: core.MobileNetV3}, core.ClusterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			New(dep).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("status %d, want 413 (%s)", rec.Code, rec.Body)
			}
			if n := dep.Cluster.Stats().Queries; n != 0 {
				t.Errorf("served %d queries, want 0", n)
			}
		})
	}
}
