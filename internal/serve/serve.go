// Package serve is the live service mode: an HTTP server owning a
// registry of resident scenario runs that execute continuously on the
// deterministic kernel while being observed.
//
// # Snapshot publication
//
// Each run lives on one driver goroutine that alternates two phases:
// advance (RunHandle.StepTo — the sim executes, nothing observes it)
// and publish (the sim is paused at a telemetry-aligned barrier; the
// driver reads run state and renders an immutable snapshot — status,
// Prometheus families, new stream lines — and stores it in an atomic
// pointer). HTTP handlers only ever load published snapshots; they
// never touch a kernel, a recorder or a scorecard. Observation
// therefore cannot perturb a run: the same StepTo/Finish sequence with
// no server attached produces byte-identical results (pinned by the
// race test and viator's TestLiveRunMatchesBatch).
//
// # Endpoints
//
//	GET  /metrics                    live Prometheus text across all runs
//	GET  /api/v1/runs                statuses, creation order
//	POST /api/v1/runs                start a run (builtin name or inline spec; body ≤ 1 MiB)
//	GET  /api/v1/runs/{id}           one run's status
//	POST /api/v1/runs/{id}/pause     pause at the next barrier
//	POST /api/v1/runs/{id}/resume    resume a paused run
//	POST /api/v1/runs/{id}/stop      abandon the run
//	GET  /api/v1/runs/{id}/result    sealed table + verdicts once done
//	GET  /api/v1/stream              live JSONL (status/rollup/trace), ?run= filter
//	GET  /healthz                    liveness + run count
//	GET  /api/v1/build               module build info
//	GET  /debug/pprof/...            standard pprof handlers
//
// This package is bound by the walltime/maporder lint contract: it
// contains no wall-clock reads (pacing is injected via Pacer — the
// wall-clock implementation lives in cmd/viatorserve, outside the
// deterministic scope) and no order-sensitive map iteration.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"sync"

	"viator"
	"viator/internal/telemetry"
)

// Pacer throttles run drivers against external time. Pace is called on
// the driver goroutine after each published window with the window's
// sim-time width; implementations block as they see fit (the viatorserve
// command sleeps simDelta scaled by a -pace factor). A nil Pacer
// free-runs every scenario as fast as the kernel executes.
type Pacer interface {
	Pace(simDelta float64)
}

// Config parameterizes a Server.
type Config struct {
	// Resolve maps a requested scenario name to a compiled scenario.
	// Nil uses viator.BuiltinScenario (s1, s2, s3, s3s).
	Resolve func(name string) (*viator.Scenario, bool)
	// Pacer throttles the drivers; nil free-runs.
	Pacer Pacer
	// PublishEvery is the snapshot publication period in sim seconds
	// (default 0.5 — the builtin scenarios' telemetry tick).
	PublishEvery float64
}

// Server owns the run registry and the HTTP surface.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	broker *broker

	mu     sync.Mutex
	runs   map[string]*Run
	order  []string // run IDs in creation order
	nextID int
}

// New builds a Server.
func New(cfg Config) *Server {
	if cfg.Resolve == nil {
		cfg.Resolve = viator.BuiltinScenario
	}
	if cfg.PublishEvery <= 0 {
		cfg.PublishEvery = 0.5
	}
	s := &Server{
		cfg:    cfg,
		mux:    http.NewServeMux(),
		broker: newBroker(),
		runs:   make(map[string]*Run),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /api/v1/build", s.handleBuild)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /api/v1/runs", s.handleListRuns)
	s.mux.HandleFunc("POST /api/v1/runs", s.handleStartRun)
	s.mux.HandleFunc("GET /api/v1/runs/{id}", s.handleRunStatus)
	s.mux.HandleFunc("POST /api/v1/runs/{id}/pause", s.handleControl(opPause))
	s.mux.HandleFunc("POST /api/v1/runs/{id}/resume", s.handleControl(opResume))
	s.mux.HandleFunc("POST /api/v1/runs/{id}/stop", s.handleControl(opStop))
	s.mux.HandleFunc("GET /api/v1/runs/{id}/result", s.handleRunResult)
	s.mux.HandleFunc("GET /api/v1/stream", s.handleStream)
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Start resolves a scenario name through the configured Resolve and
// launches a resident run — the programmatic twin of POST /api/v1/runs.
func (s *Server) Start(name string, seed uint64) (*Run, error) {
	sc, ok := s.cfg.Resolve(name)
	if !ok {
		return nil, fmt.Errorf("unknown scenario %q", name)
	}
	return s.start(name, sc, seed), nil
}

// Get resolves a run by ID.
func (s *Server) Get(id string) (*Run, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	return r, ok
}

// snapshotGroups collects the server-wide families (run count, stream
// subscribers and dropped batches), then every run's published
// Prometheus families in creation order.
func (s *Server) snapshotGroups() [][]telemetry.PromFamily {
	s.mu.Lock()
	defer s.mu.Unlock()
	groups := make([][]telemetry.PromFamily, 0, len(s.order)+1)
	groups = append(groups, []telemetry.PromFamily{{
		Name:    "viator_server_runs",
		Samples: []byte(fmt.Sprintf("viator_server_runs %d\n", len(s.order))),
	}, {
		Name:    "viator_stream_subscribers",
		Header:  []byte("# TYPE viator_stream_subscribers gauge\n"),
		Samples: []byte(fmt.Sprintf("viator_stream_subscribers %d\n", s.broker.subscribers())),
	}, {
		Name:    "viator_stream_dropped_batches_total",
		Header:  []byte("# TYPE viator_stream_dropped_batches_total counter\n"),
		Samples: []byte(fmt.Sprintf("viator_stream_dropped_batches_total %d\n", s.broker.dropped.Load())),
	}})
	for _, id := range s.order {
		if snap := s.runs[id].snap.Load(); snap != nil {
			groups = append(groups, snap.fams)
		}
	}
	return groups
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	groups := s.snapshotGroups()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := telemetry.WritePromFamilies(w, groups...); err != nil {
		return // client went away mid-write; nothing to clean up
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	n := len(s.order)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "runs": n})
}

func (s *Server) handleBuild(w http.ResponseWriter, _ *http.Request) {
	info := map[string]any{"ok": false}
	if bi, ok := debug.ReadBuildInfo(); ok {
		info = map[string]any{
			"ok":   true,
			"path": bi.Path,
			"go":   bi.GoVersion,
		}
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleListRuns(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	statuses := make([]RunStatus, 0, len(ids))
	for _, id := range ids {
		if r, ok := s.Get(id); ok {
			statuses = append(statuses, r.Status())
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"runs": statuses})
}

// startRequest is the POST /api/v1/runs body: either a catalog scenario
// name or an inline spec (the scenario DSL document itself).
type startRequest struct {
	Scenario string          `json:"scenario"`
	Seed     uint64          `json:"seed"`
	Spec     json.RawMessage `json:"spec"`
}

// maxStartBody bounds a POST /api/v1/runs body. Inline specs are a few
// KiB; the bound keeps an oversized upload from being buffered whole.
const maxStartBody = 1 << 20

func (s *Server) handleStartRun(w http.ResponseWriter, req *http.Request) {
	var body startRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxStartBody)).Decode(&body); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	var (
		sc   *viator.Scenario
		name string
	)
	switch {
	case len(body.Spec) > 0:
		parsed, err := viator.ParseScenario(body.Spec)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad spec: %v", err))
			return
		}
		sc, name = parsed, parsed.Spec.Name
	case body.Scenario != "":
		resolved, ok := s.cfg.Resolve(body.Scenario)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Sprintf("unknown scenario %q", body.Scenario))
			return
		}
		sc, name = resolved, body.Scenario
	default:
		writeError(w, http.StatusBadRequest, "need \"scenario\" or \"spec\"")
		return
	}
	r := s.start(name, sc, body.Seed)
	writeJSON(w, http.StatusCreated, r.Status())
}

func (s *Server) handleRunStatus(w http.ResponseWriter, req *http.Request) {
	r, ok := s.Get(req.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such run")
		return
	}
	writeJSON(w, http.StatusOK, r.Status())
}

func (s *Server) handleRunResult(w http.ResponseWriter, req *http.Request) {
	r, ok := s.Get(req.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such run")
		return
	}
	res := r.Result()
	if res == nil {
		writeError(w, http.StatusConflict, "run not done")
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleControl builds the pause/resume/stop handler for one operation.
func (s *Server) handleControl(op ctrlOp) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		r, ok := s.Get(req.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, "no such run")
			return
		}
		if !r.control(op) {
			writeError(w, http.StatusConflict, "run already finished")
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]any{"id": r.ID(), "accepted": true})
	}
}

func (s *Server) handleStream(w http.ResponseWriter, req *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	sub := s.broker.subscribe(req.URL.Query().Get("run"))
	defer s.broker.unsubscribe(sub)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		select {
		case <-req.Context().Done():
			return
		case batch := <-sub.ch:
			if _, err := w.Write(batch); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]any{"error": msg})
}
