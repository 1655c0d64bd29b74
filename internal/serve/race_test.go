package serve

import (
	"context"
	"io"
	"net/http"
	"sync"
	"testing"

	"viator"
)

// TestServerObservationDoesNotPerturbS1 extends the telemetry
// determinism contract (TestTelemetryDoesNotPerturbTheRun) to the live
// server: a full S1 run hosted by the server — while goroutines hammer
// /metrics, the run-status API and the JSONL stream — must produce a
// final table byte-identical to an unobserved batch run of the same
// seed. Run under -race in CI, this also pins the snapshot seam: every
// handler read goes through published immutable snapshots, never
// through live sim state.
func TestServerObservationDoesNotPerturbS1(t *testing.T) {
	if testing.Short() {
		t.Skip("full S1 run under observation")
	}
	const seed = 42
	sc, ok := viator.BuiltinScenario("s1")
	if !ok {
		t.Fatal("builtin s1 missing")
	}
	want := sc.Run(seed).Table().String()

	s, ts := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Stream hammer: subscribe to everything and discard.
	streamCh := openStream(t, ctx, ts.URL+"/api/v1/stream")
	go func() {
		for range streamCh {
		}
	}()

	st := postRun(t, ts.URL, `{"scenario": "s1", "seed": 42}`)

	// Scrape hammers: tight loops over /metrics and the status API.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	hammer := func(url string) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(url)
			if err != nil {
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	for i := 0; i < 2; i++ {
		wg.Add(2)
		go hammer(ts.URL + "/metrics")
		go hammer(ts.URL + "/api/v1/runs/" + st.ID)
	}

	r, ok := s.Get(st.ID)
	if !ok {
		t.Fatal("run not registered")
	}
	r.wait()
	close(stop)
	wg.Wait()
	cancel()

	res := r.Result()
	if res == nil {
		t.Fatal("no result after Wait")
	}
	if res.Table != want {
		t.Errorf("observed S1 table diverged from unobserved run:\nobserved:\n%s\nunobserved:\n%s", res.Table, want)
	}
	if fin := r.Status(); fin.State != StateDone || fin.SimNow != fin.Horizon {
		t.Fatalf("final status = %+v", fin)
	}
}
