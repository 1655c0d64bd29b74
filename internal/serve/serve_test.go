package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"viator"
)

// smokeSpec is a cheap feature-dense scenario: churn, healing, two
// overlays, telemetry tick, assertions — milliseconds to run, yet it
// exercises every stream line kind and metric family.
const smokeSpec = `{
  "name": "smoke",
  "title": "smoke: live server probe",
  "ships": 32,
  "horizon": 4.0,
  "row_every": 1.0,
  "arena": {"kind": "static", "side": 260.0, "radius": 90.0},
  "pulse_period": 1.0,
  "heal_period": 1.0,
  "telemetry_tick": 0.5,
  "slo": {"quantile": 0.95, "max_latency": 0.100, "min_delivery_ratio": 0.30},
  "jets": [{"at": 0, "role": "caching", "fanout": 2}],
  "churn": {"period": 0.5},
  "traffic": [
    {"kind": "uniform", "period": 0.05},
    {"kind": "cbr", "rate": 4, "src": 3, "dst": 17, "overlay": "stream"}
  ],
  "asserts": {"flows": [{"flow": "", "min_delivery_ratio": 0.30}], "min_delivered": 1}
}
`

// sleepPacer stretches a run over wall time so control operations have
// a live run to land on. Tests are outside the walltime lint scope.
type sleepPacer struct{ d time.Duration }

func (p sleepPacer) Pace(float64) { time.Sleep(p.d) }

// wait blocks until the run's driver goroutine has exited.
func (r *Run) wait() { <-r.done }

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postRun starts a run from an inline spec and returns its status.
func postRun(t *testing.T, base string, body string) RunStatus {
	t.Helper()
	resp, err := http.Post(base+"/api/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /api/v1/runs: status %d", resp.StatusCode)
	}
	var st RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func specBody(seed uint64) string {
	return fmt.Sprintf(`{"seed": %d, "spec": %s}`, seed, smokeSpec)
}

func TestRunLifecycleAndResult(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	st := postRun(t, ts.URL, specBody(42))
	if st.ID == "" || st.Scenario != "smoke" || st.Horizon != 4.0 {
		t.Fatalf("start status = %+v", st)
	}
	r, ok := s.Get(st.ID)
	if !ok {
		t.Fatal("run not registered")
	}
	r.wait()

	var done RunStatus
	if code := getJSON(t, ts.URL+"/api/v1/runs/"+st.ID, &done); code != 200 {
		t.Fatalf("status code %d", code)
	}
	if done.State != StateDone || done.SimNow != 4.0 || done.Pass == nil || !*done.Pass {
		t.Fatalf("final status = %+v", done)
	}
	if done.Delivered == 0 || len(done.Flows) != 2 {
		t.Fatalf("expected traffic on 2 flows, got %+v", done)
	}

	var res RunResult
	if code := getJSON(t, ts.URL+"/api/v1/runs/"+st.ID+"/result", &res); code != 200 {
		t.Fatalf("result code %d", code)
	}
	if !res.Pass || !strings.Contains(res.Table, "smoke: live server probe") || len(res.Verdicts) != 2 {
		t.Fatalf("result = pass=%t verdicts=%d", res.Pass, len(res.Verdicts))
	}

	var list struct {
		Runs []RunStatus `json:"runs"`
	}
	getJSON(t, ts.URL+"/api/v1/runs", &list)
	if len(list.Runs) != 1 || list.Runs[0].ID != st.ID {
		t.Fatalf("list = %+v", list)
	}
}

func TestStartRunErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		body string
		code int
	}{
		{`{"scenario": "nope"}`, http.StatusNotFound},
		{`{}`, http.StatusBadRequest},
		{`{"spec": {"name": "x"}}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/api/v1/runs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Fatalf("body %q: status %d, want %d", tc.body, resp.StatusCode, tc.code)
		}
	}
	if code := getJSON(t, ts.URL+"/api/v1/runs/r99", nil); code != http.StatusNotFound {
		t.Fatalf("missing run status code %d", code)
	}
	if code := getJSON(t, ts.URL+"/api/v1/runs/r99/result", nil); code != http.StatusNotFound {
		t.Fatalf("missing result code %d", code)
	}
}

// TestStartRunBodyLimit: POST /api/v1/runs reads at most maxStartBody
// bytes. A larger body is refused with 413 and a reason; a real inline
// spec is far below the bound.
func TestStartRunBodyLimit(t *testing.T) {
	s1, err := os.ReadFile("../../scenarios/s1.json")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Pacer: sleepPacer{time.Millisecond}})
	for _, tc := range []struct {
		name string
		body string
		code int
	}{
		{"over limit", `{"spec": {"name": "` + strings.Repeat("x", maxStartBody) + `"}}`, http.StatusRequestEntityTooLarge},
		{"inline s1 spec", fmt.Sprintf(`{"seed": 42, "spec": %s}`, s1), http.StatusCreated},
	} {
		resp, err := http.Post(ts.URL+"/api/v1/runs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var reply struct {
			ID    string `json:"id"`
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decode reply: %v", tc.name, err)
		}
		if resp.StatusCode != tc.code {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
		switch tc.code {
		case http.StatusRequestEntityTooLarge:
			if !strings.Contains(reply.Error, "exceeds") {
				t.Fatalf("%s: 413 without a reason: %+v", tc.name, reply)
			}
		case http.StatusCreated:
			// The run only had to be admitted; stop it rather than
			// simulate all of S1.
			stop, err := http.Post(ts.URL+"/api/v1/runs/"+reply.ID+"/stop", "application/json", nil)
			if err != nil {
				t.Fatal(err)
			}
			stop.Body.Close()
			waitState(t, ts, reply.ID, StateStopped)
		}
	}
}

// waitState polls a run's published state until it matches or times out.
func waitState(t *testing.T, ts *httptest.Server, id, want string) RunStatus {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var st RunStatus
		getJSON(t, ts.URL+"/api/v1/runs/"+id, &st)
		if st.State == want {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("run %s never reached state %q", id, want)
	return RunStatus{}
}

func TestPauseResumeStop(t *testing.T) {
	s, ts := newTestServer(t, Config{Pacer: sleepPacer{5 * time.Millisecond}})
	st := postRun(t, ts.URL, specBody(1))
	id := st.ID

	post := func(action string, want int) {
		resp, err := http.Post(ts.URL+"/api/v1/runs/"+id+"/"+action, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("POST %s: status %d, want %d", action, resp.StatusCode, want)
		}
	}

	post("pause", http.StatusAccepted)
	paused := waitState(t, ts, id, StatePaused)
	time.Sleep(20 * time.Millisecond)
	var still RunStatus
	getJSON(t, ts.URL+"/api/v1/runs/"+id, &still)
	if still.State != StatePaused || still.SimNow != paused.SimNow {
		t.Fatalf("paused run advanced: %+v -> %+v", paused, still)
	}
	if code := getJSON(t, ts.URL+"/api/v1/runs/"+id+"/result", nil); code != http.StatusConflict {
		t.Fatalf("result while paused: code %d", code)
	}

	post("resume", http.StatusAccepted)
	waitState(t, ts, id, StateRunning)

	post("stop", http.StatusAccepted)
	r, _ := s.Get(id)
	r.wait()
	stopped := waitState(t, ts, id, StateStopped)
	if stopped.Pass != nil {
		t.Fatalf("stopped run has a verdict: %+v", stopped)
	}
	post("pause", http.StatusConflict) // driver exited
}

// promFamily extracts the metric name of a sample line.
func promFamily(line string) string {
	if i := strings.IndexAny(line, "{ "); i >= 0 {
		return line[:i]
	}
	return line
}

// validateProm checks the exposition-format grouping rules: every
// family's samples are consecutive, and every family has exactly one
// # TYPE header, which precedes its samples.
func validateProm(t *testing.T, text string) map[string]int {
	t.Helper()
	closed := make(map[string]bool) // families whose block has ended
	typed := make(map[string]bool)
	samples := make(map[string]int)
	current := ""
	family := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if typed[strings.TrimSuffix(name, suf)] {
				return strings.TrimSuffix(name, suf)
			}
		}
		return name
	}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Fatal("blank line in exposition output")
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name := strings.Fields(rest)[0]
			if typed[name] {
				t.Fatalf("duplicate # TYPE for %s", name)
			}
			typed[name] = true
			continue
		}
		fam := family(promFamily(line))
		if fam != current {
			if closed[fam] {
				t.Fatalf("family %s has non-consecutive samples (line %q)", fam, line)
			}
			if current != "" {
				closed[current] = true
			}
			current = fam
		}
		if !typed[fam] {
			t.Fatalf("family %s has no # TYPE before its samples (line %q)", fam, line)
		}
		samples[fam]++
	}
	for fam := range typed {
		if samples[fam] == 0 {
			t.Fatalf("# TYPE for %s, which has no samples", fam)
		}
	}
	return samples
}

// panicOnce is a Pacer whose first Pace call panics; every later call
// returns at once.
type panicOnce struct{ fired atomic.Bool }

func (p *panicOnce) Pace(float64) {
	if p.fired.CompareAndSwap(false, true) {
		panic("pacer: injected failure")
	}
}

// TestDriverPanicFailsOnlyItsRun runs two scenarios under a Pacer that
// panics once. The driver that meets the panic must fail its own run —
// state failed, the panic's message in its status JSON, no result, done
// closed — while the other run finishes with the table of an unobserved
// run, and /metrics stays valid with the failed run resident.
func TestDriverPanicFailsOnlyItsRun(t *testing.T) {
	sc, err := viator.ParseScenario([]byte(smokeSpec))
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Pacer: &panicOnce{}})
	seeds := map[string]uint64{}
	for _, seed := range []uint64{11, 22} {
		seeds[postRun(t, ts.URL, specBody(seed)).ID] = seed
	}
	failed, done := 0, 0
	for id, seed := range seeds {
		r, _ := s.Get(id)
		r.wait()
		var st RunStatus
		getJSON(t, ts.URL+"/api/v1/runs/"+id, &st)
		switch st.State {
		case StateFailed:
			failed++
			if !strings.Contains(st.Error, "injected failure") || st.Pass != nil {
				t.Fatalf("failed run %s: status %+v", id, st)
			}
			if code := getJSON(t, ts.URL+"/api/v1/runs/"+id+"/result", nil); code != http.StatusConflict {
				t.Fatalf("failed run %s: result status %d, want 409", id, code)
			}
		case StateDone:
			done++
			var res RunResult
			getJSON(t, ts.URL+"/api/v1/runs/"+id+"/result", &res)
			if want := sc.Run(seed).Table().String(); res.Table != want {
				t.Fatalf("run %s beside the failed one diverged from an unobserved run:\n%s\nwant:\n%s", id, res.Table, want)
			}
		default:
			t.Fatalf("run %s ended in state %q", id, st.State)
		}
	}
	if failed != 1 || done != 1 {
		t.Fatalf("%d failed and %d done runs, want one each", failed, done)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	validateProm(t, buf.String())
}

func TestMetricsValidPrometheus(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	st1 := postRun(t, ts.URL, specBody(11))
	st2 := postRun(t, ts.URL, specBody(22))
	for _, id := range []string{st1.ID, st2.ID} {
		r, _ := s.Get(id)
		r.wait()
	}
	// Scrape twice: both snapshots must be complete, valid documents.
	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		samples := validateProm(t, buf.String())
		if samples["viator_server_runs"] != 1 {
			t.Fatal("missing viator_server_runs")
		}
		// Two runs contribute to every shared family.
		if n := samples["viator_run_sim_time"]; n != 2 {
			t.Fatalf("viator_run_sim_time samples = %d, want 2", n)
		}
		if n := samples["viator_latency_seconds"]; n < 8 {
			t.Fatalf("latency histogram has %d samples — empty buckets?", n)
		}
		if !strings.Contains(buf.String(), `run="`+st1.ID+`"`) ||
			!strings.Contains(buf.String(), `run="`+st2.ID+`"`) {
			t.Fatal("metrics missing per-run labels")
		}
	}
}

// TestMetricsCountStreamDrops pins the stream's loss accounting: a
// subscriber that never reads fills its 64-batch buffer, the 65th
// publication is dropped, and the next scrape reports the drop and the
// attached subscriber. The count is server-wide, so it outlives the
// subscriber that dropped.
func TestMetricsCountStreamDrops(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	scrape := func() map[string]string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		validateProm(t, buf.String())
		vals := map[string]string{}
		for _, line := range strings.Split(buf.String(), "\n") {
			if name, v, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
				vals[name] = v
			}
		}
		return vals
	}
	sub := s.broker.subscribe("")
	for i := 0; i < 65; i++ {
		s.broker.publish("r1", []byte("{}\n"))
	}
	m := scrape()
	if m["viator_stream_subscribers"] != "1" {
		t.Fatalf("viator_stream_subscribers = %q, want 1", m["viator_stream_subscribers"])
	}
	var dropped int
	fmt.Sscan(m["viator_stream_dropped_batches_total"], &dropped)
	if dropped < 1 {
		t.Fatalf("viator_stream_dropped_batches_total = %q, want >= 1", m["viator_stream_dropped_batches_total"])
	}
	s.broker.unsubscribe(sub)
	m = scrape()
	if m["viator_stream_subscribers"] != "0" || m["viator_stream_dropped_batches_total"] != fmt.Sprint(dropped) {
		t.Fatalf("after detach: subscribers %q, dropped %q; want 0, %d",
			m["viator_stream_subscribers"], m["viator_stream_dropped_batches_total"], dropped)
	}
}

// openStream subscribes to the stream and returns a channel of parsed
// records plus a cancel func. It returns only after the subscription is
// established server-side (response headers received), so records from
// runs started afterwards cannot be missed.
func openStream(t *testing.T, ctx context.Context, url string) <-chan map[string]any {
	t.Helper()
	req, _ := http.NewRequestWithContext(ctx, "GET", url, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	ch := make(chan map[string]any, 256)
	go func() {
		defer resp.Body.Close()
		defer close(ch)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var m map[string]any
			if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
				return
			}
			ch <- m
		}
	}()
	return ch
}

// drainUntilDone collects records until one reports the done state.
func drainUntilDone(t *testing.T, ch <-chan map[string]any) []map[string]any {
	t.Helper()
	var recs []map[string]any
	for m := range ch {
		recs = append(recs, m)
		if st, _ := m["state"].(string); st == StateDone {
			return recs
		}
	}
	t.Fatal("stream closed before the run finished")
	return nil
}

func TestStreamCarriesAllLineKinds(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ch := openStream(t, ctx, ts.URL+"/api/v1/stream")
	st := postRun(t, ts.URL, specBody(7))
	recs := drainUntilDone(t, ch)
	cancel()
	kinds := map[string]bool{}
	for _, r := range recs {
		kind, _ := r["kind"].(string)
		if kind == "" {
			t.Fatalf("stream record without kind: %v", r)
		}
		kinds[kind] = true
		if run, _ := r["run"].(string); run != st.ID {
			t.Fatalf("stream record tagged %q, want %q: %v", run, st.ID, r)
		}
		switch kind {
		case "rollup":
			for _, k := range []string{"name", "t", "min", "mean", "max"} {
				if _, ok := r[k]; !ok {
					t.Fatalf("rollup line missing %q: %v", k, r)
				}
			}
		case "trace":
			for _, k := range []string{"t", "cat", "msg"} {
				if _, ok := r[k]; !ok {
					t.Fatalf("trace line missing %q: %v", k, r)
				}
			}
		}
	}
	for _, want := range []string{"status", "rollup", "trace"} {
		if !kinds[want] {
			t.Fatalf("stream never carried kind %q (got %v)", want, kinds)
		}
	}
}

func TestStreamRunFilter(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Run IDs are allocated deterministically per server (r1, r2, …), so
	// the filter for the second run can be set up before it starts.
	ch := openStream(t, ctx, ts.URL+"/api/v1/stream?run=r2")
	st1 := postRun(t, ts.URL, specBody(1))
	st2 := postRun(t, ts.URL, specBody(2))
	if st1.ID != "r1" || st2.ID != "r2" {
		t.Fatalf("run IDs = %q, %q", st1.ID, st2.ID)
	}
	recs := drainUntilDone(t, ch)
	cancel()
	for _, id := range []string{st1.ID, st2.ID} {
		r, _ := s.Get(id)
		r.wait()
	}
	for _, r := range recs {
		if run, _ := r["run"].(string); run != "r2" {
			t.Fatalf("filtered stream leaked run %q: %v", run, r)
		}
	}
}

func TestHealthzAndBuildAndPprof(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var hz struct {
		OK   bool `json:"ok"`
		Runs int  `json:"runs"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &hz); code != 200 || !hz.OK {
		t.Fatalf("healthz = %d %+v", code, hz)
	}
	var build map[string]any
	if code := getJSON(t, ts.URL+"/api/v1/build", &build); code != 200 {
		t.Fatalf("build = %d", code)
	}
	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pprof cmdline status %d", resp.StatusCode)
	}
}

// Finished runs are retained up to maxFinishedRuns: starting a run
// evicts the oldest finished ones while more runs are resident than
// that, an evicted ID answers 404
// like an unknown one, /metrics counts the resident runs, and no driver
// goroutine outlives its run.
func TestFinishedRunRetentionBounded(t *testing.T) {
	tiny, err := viator.ParseScenario([]byte(strings.NewReplacer(`"horizon": 4.0`, `"horizon": 0.5`, `"row_every": 1.0`, `"row_every": 0.5`).Replace(smokeSpec)))
	if err != nil {
		t.Fatal(err)
	}
	goroutines := runtime.NumGoroutine()
	s, ts := newTestServer(t, Config{Resolve: func(string) (*viator.Scenario, bool) { return tiny, true }})
	const runs = maxFinishedRuns + 8
	ids := make([]string, runs)
	for i := range ids {
		r, err := s.Start("tiny", uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		r.wait()
		ids[i] = r.ID()
	}
	for i, id := range ids {
		want := http.StatusOK
		if i < len(ids)-maxFinishedRuns {
			want = http.StatusNotFound
		}
		if code := getJSON(t, ts.URL+"/api/v1/runs/"+id, nil); code != want {
			t.Errorf("run %s: status %d, want %d", id, code, want)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("viator_server_runs %d\n", maxFinishedRuns); !strings.Contains(string(body), want) {
		t.Errorf("/metrics does not report %q", want)
	}
	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("goroutines: %d after the runs, %d before", n, goroutines)
	}
}

// A running run is never evicted, however many runs are resident: only
// finished runs make room.
func TestRunningRunsNeverEvicted(t *testing.T) {
	tiny, err := viator.ParseScenario([]byte(strings.NewReplacer(`"horizon": 4.0`, `"horizon": 0.5`, `"row_every": 1.0`, `"row_every": 0.5`).Replace(smokeSpec)))
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Resolve: func(string) (*viator.Scenario, bool) { return tiny, true }})
	// Runs whose drivers never exit stand in for running runs.
	s.mu.Lock()
	for i := 0; i < maxFinishedRuns; i++ {
		r := &Run{id: fmt.Sprintf("running%d", i), done: make(chan struct{})}
		r.snap.Store(&snapshot{status: RunStatus{ID: r.id, State: StateRunning}})
		s.runs[r.id] = r
		s.order = append(s.order, r.id)
	}
	s.mu.Unlock()
	first, err := s.Start("tiny", 1)
	if err != nil {
		t.Fatal(err)
	}
	first.wait()
	second, err := s.Start("tiny", 2)
	if err != nil {
		t.Fatal(err)
	}
	second.wait()
	if code := getJSON(t, ts.URL+"/api/v1/runs/"+first.ID(), nil); code != http.StatusNotFound {
		t.Errorf("finished run %s: status %d, want 404", first.ID(), code)
	}
	for _, id := range []string{"running0", fmt.Sprintf("running%d", maxFinishedRuns-1), second.ID()} {
		if code := getJSON(t, ts.URL+"/api/v1/runs/"+id, nil); code != http.StatusOK {
			t.Errorf("run %s: status %d, want 200", id, code)
		}
	}
}
