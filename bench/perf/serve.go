package perf

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
	"strconv"
	"strings"
	"sync"
	"time"

	"viator"
	"viator/internal/serve"
)

// The serve-observed workload: viatorserve's server in process behind a
// loopback listener, driven only over HTTP. Operations are S1 runs, one
// after another: each is started by POST, its completion is seen on the
// JSONL stream, and its sealed result is fetched and digest-checked
// against the batch S1 digests (observation must not perturb a run).
// Alongside, an open-loop scraper reads /metrics at a fixed rate over the
// same keep-alive connection the control requests use; a second
// connection carries the stream. Two connections in all.

const (
	// scrapeRate is the open-loop /metrics request rate (per second).
	scrapeRate = 50
	// scrapeLimitMs is the scrape latency limit on p99.
	scrapeLimitMs = 50
	// publishEvery is the server's snapshot period in sim seconds; each
	// publication streams one status line per run.
	publishEvery = 0.5
	// runTimeout bounds the wait for one served run to finish.
	runTimeout = 60 * time.Second
)

// serveWorkload is S1 as the live server runs it: the same simulation as
// s1-metropolis, but with the server rendering reads beside the driver's
// publications.
func serveWorkload() *Workload {
	return &Workload{
		Name:    "serve-observed",
		digests: "s1-metropolis",
		run:     runServe,
	}
}

// streamEvent is the part of a stream line the workload reads.
type streamEvent struct {
	Run       string `json:"run"`
	State     string `json:"state"`
	Delivered uint64 `json:"delivered"`
	Lost      uint64 `json:"lost"`
}

// doneEvent is a run's final status line and when it arrived.
type doneEvent struct {
	ev streamEvent
	at time.Time
}

// streamReader follows /api/v1/stream, counting lines and status lines
// per run, timing the interval between a run's consecutive status lines,
// and handing each run's done line to the workload.
type streamReader struct {
	ctx      context.Context
	mu       sync.Mutex
	lines    int
	statuses map[string]int
	last     map[string]time.Time
	// intervalsMs is read once read has returned.
	intervalsMs []float64
	done        chan doneEvent
}

func (s *streamReader) read(body io.Reader) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Bytes()
		s.mu.Lock()
		s.lines++
		s.mu.Unlock()
		if !bytes.Contains(line, []byte(`"kind":"status"`)) {
			continue
		}
		var ev streamEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("bad status line: %w", err)
		}
		now := time.Now()
		if prev, ok := s.last[ev.Run]; ok {
			s.intervalsMs = append(s.intervalsMs, float64(now.Sub(prev))/float64(time.Millisecond))
		}
		s.last[ev.Run] = now
		s.mu.Lock()
		s.statuses[ev.Run]++
		s.mu.Unlock()
		if ev.State == serve.StateDone {
			select {
			case s.done <- doneEvent{ev: ev, at: now}:
			case <-s.ctx.Done():
				return s.ctx.Err()
			}
		}
	}
	return sc.Err()
}

func (s *streamReader) counts(run string) (lines, statuses int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lines, s.statuses[run]
}

// scraper is the open-loop /metrics client. Request k is due at
// start + k/scrapeRate and its latency runs from that due time, so a
// stall is charged to every request it delays. A failed scrape counts as
// missing any latency limit: its latency is +Inf.
type scraper struct {
	client *http.Client
	url    string

	latMs, lateMs, bytes []float64
	attempted, failed    int
	firstErr             error
}

func (s *scraper) run(stop <-chan struct{}, tr *tracer) {
	start := time.Now()
	period := time.Second / scrapeRate
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * period)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-stop:
				return
			case <-time.After(wait):
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		sp := tr.begin("serve.scrape", 0, "scrape")
		s.lateMs = append(s.lateMs, float64(time.Since(due))/float64(time.Millisecond))
		n, err := s.scrapeOnce()
		lat := float64(time.Since(due)) / float64(time.Millisecond)
		tr.end(sp)
		s.attempted++
		if err != nil {
			if s.failed == 0 {
				s.firstErr = err
			}
			s.failed++
			lat = math.Inf(1)
		} else {
			s.bytes = append(s.bytes, float64(n))
		}
		s.latMs = append(s.latMs, lat)
	}
}

func (s *scraper) scrapeOnce() (int, error) {
	resp, err := s.client.Get(s.url)
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return len(body), checkExposition(body)
}

// checkExposition validates Prometheus text exposition: at most one
// # TYPE per family, and at least one sample, each line a metric name,
// optional labels and a numeric value.
func checkExposition(body []byte) error {
	typed := map[string]bool{}
	samples := 0
	for len(body) > 0 {
		var line []byte
		line, body, _ = bytes.Cut(body, []byte("\n"))
		switch {
		case len(line) == 0:
		case bytes.HasPrefix(line, []byte("# TYPE ")):
			f := strings.Fields(string(line))
			if len(f) != 4 {
				return fmt.Errorf("bad TYPE line %q", line)
			}
			if typed[f[2]] {
				return fmt.Errorf("family %s typed twice", f[2])
			}
			typed[f[2]] = true
		case line[0] == '#':
		default:
			sp := bytes.LastIndexByte(line, ' ')
			name := line
			if i := bytes.IndexAny(line, "{ "); i >= 0 {
				name = line[:i]
			}
			if sp <= 0 || len(name) == 0 {
				return fmt.Errorf("bad sample line %q", line)
			}
			if _, err := strconv.ParseFloat(string(line[sp+1:]), 64); err != nil {
				return fmt.Errorf("bad sample value in %q", line)
			}
			samples++
		}
	}
	if samples == 0 {
		return errors.New("no samples")
	}
	return nil
}

// runServe starts the server, the stream reader and the scraper, runs S1
// operations until the meter stops, then shuts everything down and waits
// for every goroutine it started.
func runServe(m *meter) error {
	s1, _ := viator.BuiltinScenario("s1")
	expected := int(s1.Spec.Horizon/publishEvery + 0.5)
	spec, err := s1.Spec.Marshal()
	if err != nil {
		return fmt.Errorf("marshal spec: %w", err)
	}

	srv := serve.New(serve.Config{PublishEvery: publishEvery})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	serving := make(chan struct{})
	go func() {
		defer close(serving)
		hs.Serve(ln) // returns http.ErrServerClosed once Close runs below
	}()
	defer func() {
		hs.Close()
		<-serving
	}()
	base := "http://" + ln.Addr().String()

	// One keep-alive connection shared by control requests and scrapes,
	// one for the stream.
	ctlTransport := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	streamTransport := &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}
	defer ctlTransport.CloseIdleConnections()
	defer streamTransport.CloseIdleConnections()
	ctl := &http.Client{Transport: ctlTransport, Timeout: runTimeout}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/v1/stream", nil)
	if err != nil {
		return err
	}
	resp, err := (&http.Client{Transport: streamTransport}).Do(req)
	if err != nil {
		return fmt.Errorf("open stream: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return fmt.Errorf("open stream: %s", resp.Status)
	}
	// Each run's done line is consumed before the next run starts, so the
	// reader never has more than one pending.
	sr := &streamReader{ctx: ctx, statuses: map[string]int{}, last: map[string]time.Time{}, done: make(chan doneEvent, 1)}
	streamErr := make(chan error, 1)
	go func() {
		err := sr.read(resp.Body)
		resp.Body.Close()
		streamErr <- err
	}()

	sc := &scraper{client: ctl, url: base + "/metrics"}
	stop := make(chan struct{})
	var scraping sync.WaitGroup
	scraping.Add(1)
	go func() {
		defer scraping.Done()
		sc.run(stop, m.tr)
	}()

	c := &served{m: m, ctl: ctl, base: base, sr: sr, spec: spec, expected: expected}
	for i := 0; m.more(i); i++ {
		seed := m.seed(i)
		if err := c.runOne(i, seed); err != nil {
			m.fail(fmt.Sprintf("seed %d", seed), err)
			break // the server or stream is unusable; stop rather than hang
		}
	}

	close(stop)
	scraping.Wait()
	cancel()
	if err := <-streamErr; err != nil && !errors.Is(err, context.Canceled) {
		m.fail("stream", err)
	}

	m.attempted += sc.attempted
	m.failed += sc.failed
	if sc.failed > 0 {
		m.logf("%d scrapes failed, the first: %v", sc.failed, sc.firstErr)
	}
	// A served run's step, as its observer sees it, is the interval
	// between two of its status lines: one publication period.
	m.steps = sr.intervalsMs
	lat := sc.latMs
	lines, _ := sr.counts("")
	m.layer["serve.scrape_p50_ms"] = Percentile(lat, 0.50)
	m.layer["serve.scrape_p99_ms"] = Percentile(lat, 0.99)
	m.layer["serve.scrape_bytes"] = Median(sc.bytes)
	m.layer["serve.stream_lines"] = float64(lines)
	if n := len(m.run); n > 0 {
		m.layer["serve.stream_loss_frac"] = float64(c.lost) / float64(n*expected)
	}
	m.layer["bench.gen_late_p99_ms"] = Percentile(sc.lateMs, 0.99)
	m.logf("%d scrapes at %d/s: p50 %.3f ms, p99 %.3f ms (limit %d ms), %d failed; generator late p99 %.3f ms; %d status lines lost of %d",
		len(lat), scrapeRate, Percentile(lat, 0.5), Percentile(lat, 0.99), scrapeLimitMs, sc.failed,
		Percentile(sc.lateMs, 0.99), c.lost, len(m.run)*expected)
	return nil
}

// served is what the operations of one serve run share.
type served struct {
	m        *meter
	ctl      *http.Client
	base     string
	sr       *streamReader
	spec     []byte // the S1 spec, for the traced compile span
	expected int    // status lines per run
	lost     int    // status lines missing so far
}

// runOne runs operation i: POST a run, wait for its done line on the
// stream, fetch and check its result. An error return means the server or
// stream stopped working.
func (c *served) runOne(i int, seed uint64) error {
	m := c.m
	run := "seed-" + strconv.FormatUint(seed, 10)
	op := m.tr.begin("bench.op", 0, run)
	defer m.tr.end(op)
	if m.tr != nil {
		// The server runs builtin scenarios compiled at init; time a fresh
		// compile of the spec it runs, as the batch workloads do.
		sp := m.tr.begin("scenario.compile", op, run)
		_, err := viator.ParseScenario(c.spec)
		m.tr.end(sp)
		if err != nil {
			return fmt.Errorf("compile spec: %w", err)
		}
	}

	sp := m.tr.begin("serve.post", op, run)
	t0 := time.Now()
	var st serve.RunStatus
	err := doJSON(c.ctl, http.MethodPost, c.base+"/api/v1/runs",
		fmt.Sprintf(`{"scenario":"s1","seed":%d}`, seed), http.StatusCreated, &st)
	t1 := time.Now()
	m.tr.end(sp)
	if err != nil {
		return err
	}
	m.setup = append(m.setup, t1.Sub(t0).Seconds())

	sp = m.tr.begin("serve.wait", op, run)
	m.busy.start()
	timeout := time.NewTimer(runTimeout)
	defer timeout.Stop()
	var done doneEvent
	select {
	case done = <-c.sr.done:
	case <-timeout.C:
		return fmt.Errorf("run %s: no done line within %v", st.ID, runTimeout)
	}
	m.busy.stop()
	m.tr.end(sp)
	if done.ev.Run != st.ID {
		return fmt.Errorf("done line for run %s while waiting for %s", done.ev.Run, st.ID)
	}
	m.run = append(m.run, done.at.Sub(t1).Seconds())

	sp = m.tr.begin("serve.result", op, run)
	var res serve.RunResult
	err = doJSON(c.ctl, http.MethodGet, c.base+"/api/v1/runs/"+st.ID+"/result", "", http.StatusOK, &res)
	m.tr.end(sp)
	if err != nil {
		return err
	}

	// The done line is the run's last, so every status line it published
	// has been read by now.
	_, got := c.sr.counts(st.ID)
	c.lost += c.expected - got
	var check error
	switch {
	case got != c.expected:
		check = fmt.Errorf("run %s: %d status lines, want %d", st.ID, got, c.expected)
	case !res.Pass:
		check = fmt.Errorf("run %s: assertions failed: %+v", st.ID, res.Verdicts)
	}
	if i == 0 {
		m.layer["viator.shuttles_delivered"] = float64(done.ev.Delivered)
		m.layer["viator.shuttles_lost"] = float64(done.ev.Lost)
		m.layer["viator.repairs"] = lastRowField(res.Table, 5)
	}
	m.verify(seed, tableDigest(res.Table, res.Verdicts), check)
	return nil
}

// lastRowField parses column col of the last row of a rendered table.
func lastRowField(table string, col int) float64 {
	lines := strings.Split(strings.TrimRight(table, "\n"), "\n")
	f := strings.Fields(lines[len(lines)-1])
	if col >= len(f) {
		return 0
	}
	v, _ := strconv.ParseFloat(f[col], 64)
	return v
}

// doJSON sends one request and decodes the JSON reply, which must carry
// status want.
func doJSON(c *http.Client, method, url, body string, want int, out any) error {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, url, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: %w", method, url, err)
	}
	return nil
}
