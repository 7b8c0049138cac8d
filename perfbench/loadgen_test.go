package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestGapConfirmsJobStillRunning drops a job's session_end: the stream
// shows only a sequence gap, and the job still reads running for a while,
// as it does between its session_end and its task's return. The job loop
// must keep fetching it until it is terminal instead of waiting for an
// event that will never come.
func TestGapConfirmsJobStillRunning(t *testing.T) {
	result, err := json.Marshal(tuneResult{
		Cluster:         "4x nimbus/h1.4xlarge",
		Config:          sparkSpace.Default(),
		DefaultRuntimeS: 200,
		TunedRuntimeS:   150,
		ImprovementPct:  25,
	})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	posts, gets := 0, 0
	submitted := make(chan struct{}, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			// One job; every later submission is shed.
			posts++
			if posts > 1 {
				w.WriteHeader(http.StatusTooManyRequests)
				return
			}
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"id":"job-1"}`)
			submitted <- struct{}{}
		case r.Method == http.MethodGet && r.URL.Path == "/v1/jobs/job-1":
			gets++
			v := jobView{ID: "job-1", State: "running"}
			if gets > 3 {
				v.State, v.Result = "done", result
			}
			_ = json.NewEncoder(w).Encode(v)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	// The fake stream loses job-1's session_end and shows the gap.
	es := &eventStream{C: make(chan streamEvent, 1), done: make(chan struct{})}
	go func() {
		<-submitted
		es.C <- streamEvent{Gap: true, At: time.Now()}
	}()
	defer func(d time.Duration) { stallTimeout = d }(stallTimeout)
	stallTimeout = 5 * time.Second

	h := &httpRun{def: workloadDef{outstanding: 1}, connB: newConn()}
	js := &jobStats{Improvement: make(map[sized][]float64), CostUSD: make(map[sized][]float64)}
	stream := newSpecStream(1, table1Mix(false), 4, "t")
	if err := h.jobLoop(srv.URL, es, stream, time.Now().Add(50*time.Millisecond), js); err != nil {
		t.Fatalf("jobLoop: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if js.DropsConfirmed != 1 || js.Completed+js.Drained != 1 || js.failures() != js.Refused {
		t.Errorf("confirmed %d, completed %d + drained %d, failures %d (refused %d); want 1 confirmed and finished, no failure but refusals",
			js.DropsConfirmed, js.Completed, js.Drained, js.failures(), js.Refused)
	}
	if gets < 4 {
		t.Errorf("job fetched %d times, want it polled past its 3 running reads", gets)
	}
}
