package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"sync/atomic"

	"viator"
	"viator/internal/scenario"
	"viator/internal/telemetry"
	"viator/internal/trace"
)

// A resident run and its driver goroutine. The driver owns the
// viator.RunHandle exclusively: it alternates StepTo (sim advances) with
// snapshot publication (sim paused, all reads on this goroutine), so no
// other goroutine ever touches simulation state. HTTP handlers see the
// run only through the atomic snapshot pointer — an immutable view
// published at a barrier — and the control channel. That is the whole
// concurrency seam: handlers cannot observe a half-stepped sim, and the
// sim's hot path carries zero synchronization.

// Run states, as reported in RunStatus.State.
const (
	StateRunning = "running"
	StatePaused  = "paused"
	StateDone    = "done"
	StateStopped = "stopped"
	// StateFailed is a run whose driver panicked; RunStatus.Error holds
	// the panic's message. The other runs carry on.
	StateFailed = "failed"
)

// control operations sent to the driver.
type ctrlOp int

const (
	opPause ctrlOp = iota
	opResume
	opStop
)

// FlowStatus is one flow's scorecard summary in the run-control API.
type FlowStatus struct {
	Name      string  `json:"name"`
	Sent      uint64  `json:"sent"`
	Delivered uint64  `json:"delivered"`
	Ratio     float64 `json:"ratio"`
	P50       float64 `json:"p50"`
	P95       float64 `json:"p95"`
	P99       float64 `json:"p99"`
	SLOPass   bool    `json:"slo_pass"`
}

// RunStatus is one run's public state at a snapshot boundary.
type RunStatus struct {
	ID        string       `json:"id"`
	Scenario  string       `json:"scenario"`
	Title     string       `json:"title"`
	Seed      uint64       `json:"seed"`
	State     string       `json:"state"`
	SimNow    float64      `json:"sim_now"`
	Horizon   float64      `json:"horizon"`
	AliveFrac float64      `json:"alive_frac"`
	Delivered uint64       `json:"delivered"`
	Lost      uint64       `json:"lost"`
	Flows     []FlowStatus `json:"flows,omitempty"`
	// Pass is the overall assertion verdict, present once the run is done.
	Pass *bool `json:"pass,omitempty"`
	// Error is the panic message of a failed run.
	Error string `json:"error,omitempty"`
}

// RunResult is the sealed outcome served by /api/v1/runs/{id}/result.
type RunResult struct {
	ID       string             `json:"id"`
	Pass     bool               `json:"pass"`
	Table    string             `json:"table"`
	Verdicts []scenario.Verdict `json:"verdicts"`
}

// snapshot is one immutable published view of a run. Handlers read
// whole snapshots through the atomic pointer; nothing in a snapshot
// aliases mutable simulation state (the Prometheus families are
// rendered bytes, the status is plain values).
type snapshot struct {
	status RunStatus
	fams   []telemetry.PromFamily
	result *RunResult // non-nil once done
}

// Run is one resident scenario run.
type Run struct {
	id    string
	name  string // scenario name as requested
	title string
	seed  uint64

	snap atomic.Pointer[snapshot]
	ctrl chan ctrlOp
	done chan struct{} // closed when the driver goroutine exits
}

// ID returns the run's registry key.
func (r *Run) ID() string { return r.id }

// Status returns the most recently published status.
func (r *Run) Status() RunStatus { return r.snap.Load().status }

// Result returns the sealed result, nil until the run is done.
func (r *Run) Result() *RunResult { return r.snap.Load().result }

// exited reports whether the driver goroutine has exited: the run is
// done, stopped or failed.
func (r *Run) exited() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// control enqueues a driver operation; false if the run already exited.
// done is checked before the (buffered) enqueue so a finished run
// refuses deterministically rather than by select luck.
func (r *Run) control(op ctrlOp) bool {
	select {
	case <-r.done:
		return false
	default:
	}
	select {
	case <-r.done:
		return false
	case r.ctrl <- op:
		return true
	}
}

// emitter tracks per-run stream cursors: which rollup windows and trace
// events have already been emitted, so each publication streams only
// the new tail. Lives on the driver goroutine.
type emitter struct {
	tags     string // pre-rendered `"run":"r1"` fragment for shared line renderers
	rollCur  []int  // per-series emitted rollup count
	rolls    []telemetry.Rollup
	traceCur uint64
}

// statusLine renders the serve-local `"kind":"status"` stream record.
func (em *emitter) statusLine(buf *bytes.Buffer, st RunStatus) {
	line, err := json.Marshal(struct {
		Kind string `json:"kind"`
		Run  string `json:"run"`
		RunStatus
	}{Kind: "status", Run: st.ID, RunStatus: st})
	if err != nil {
		return // status is plain values; marshal cannot fail in practice
	}
	buf.Write(line)
	buf.WriteByte('\n')
}

// collect appends every not-yet-emitted rollup window and trace event —
// rendered by the same telemetry.WriteRollupLine/WriteTraceLine the
// batch export uses, so the stream schema is the batch schema.
func (em *emitter) collect(buf *bytes.Buffer, tel *viator.Telemetry, tr *trace.Log) {
	if tel != nil {
		rec := tel.Rec
		if em.rollCur == nil {
			em.rollCur = make([]int, rec.NumSeries())
		}
		for si := 0; si < rec.NumSeries(); si++ {
			total := rec.Rollups(si)
			if total == em.rollCur[si] {
				continue
			}
			em.rolls = em.rolls[:0]
			rec.EachRollup(si, func(r telemetry.Rollup) { em.rolls = append(em.rolls, r) })
			start := total - len(em.rolls) // ordinal of the oldest retained row
			from := em.rollCur[si]
			if from < start {
				from = start
			}
			name := rec.SeriesName(si)
			for ord := from; ord < total; ord++ {
				telemetry.WriteRollupLine(buf, name, em.tags, em.rolls[ord-start])
			}
			em.rollCur[si] = total
		}
	}
	if tr != nil {
		em.traceCur = tr.EachSince(em.traceCur, func(e trace.Event) {
			telemetry.WriteTraceLine(buf, em.tags, e)
		})
	}
}

// fnum renders a float for the run-level Prometheus samples with the
// same shortest-round-trip format the telemetry exporter uses.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// runFams renders the run-level metric families (progress, outcome
// counters) published alongside the telemetry sink families.
func runFams(labels string, st RunStatus) []telemetry.PromFamily {
	fam := func(name, typ, val string) telemetry.PromFamily {
		return telemetry.PromFamily{
			Name:    name,
			Header:  []byte("# TYPE " + name + " " + typ + "\n"),
			Samples: []byte(name + "{" + labels + "} " + val + "\n"),
		}
	}
	b2s := func(b bool) string {
		if b {
			return "1"
		}
		return "0"
	}
	return []telemetry.PromFamily{
		fam("viator_run_sim_time", "gauge", fnum(st.SimNow)),
		fam("viator_run_horizon", "gauge", fnum(st.Horizon)),
		fam("viator_run_alive_frac", "gauge", fnum(st.AliveFrac)),
		fam("viator_run_shuttles_delivered_total", "counter", strconv.FormatUint(st.Delivered, 10)),
		fam("viator_run_shuttles_lost_total", "counter", strconv.FormatUint(st.Lost, 10)),
		fam("viator_run_done", "gauge", b2s(st.State == StateDone)),
	}
}

// buildSnapshot assembles the published view of h at a barrier. Runs on
// the driver goroutine while the sim is paused; everything it reads is
// copied or rendered into fresh bytes.
func (s *Server) buildSnapshot(r *Run, h *viator.RunHandle, state string) *snapshot {
	st := h.Status()
	rs := RunStatus{
		ID: r.id, Scenario: r.name, Title: r.title, Seed: r.seed,
		State: state, SimNow: st.Now, Horizon: st.Horizon,
		AliveFrac: st.AliveFrac, Delivered: st.Delivered, Lost: st.Lost,
	}
	for _, f := range st.Flows {
		rs.Flows = append(rs.Flows, FlowStatus{
			Name: f.Name, Sent: f.Sent, Delivered: f.Delivered,
			Ratio: f.DeliveryRatio, P50: f.P50, P95: f.P95, P99: f.P99,
			SLOPass: f.SLOPass,
		})
	}
	labels := `run="` + r.id + `",scenario="` + r.name + `"`
	fams := runFams(labels, rs)
	if tel := h.Telemetry(); tel != nil {
		fams = append(fams, telemetry.PromFamilies(tel.Dump(), labels)...)
	}
	return &snapshot{status: rs, fams: fams}
}

// publish stores a fresh snapshot and streams the new window's events.
func (s *Server) publish(r *Run, h *viator.RunHandle, state string, em *emitter) {
	snap := s.buildSnapshot(r, h, state)
	if state == StateDone {
		res := h.Result()
		pass := res.Pass()
		snap.status.Pass = &pass
		snap.result = &RunResult{
			ID: r.id, Pass: pass,
			Table: res.Table().String(), Verdicts: res.Verdicts,
		}
	}
	r.snap.Store(snap)
	var buf bytes.Buffer
	em.statusLine(&buf, snap.status)
	em.collect(&buf, h.Telemetry(), h.Trace())
	s.broker.publish(r.id, buf.Bytes())
}

// drive is the run's driver goroutine: step one publication period,
// publish at the barrier, pace, repeat — handling pause/resume/stop
// between steps, never during one. A panic anywhere in the driver fails
// this run alone (fail) and still closes done.
func (s *Server) drive(r *Run, h *viator.RunHandle) {
	defer close(r.done)
	em := &emitter{tags: `"run":` + strconv.Quote(r.id)}
	defer func() {
		if p := recover(); p != nil {
			s.fail(r, em, fmt.Sprint(p))
		}
	}()
	period := s.cfg.PublishEvery
	next := period
	paused := false
	for {
		// Drain pending control operations without blocking; when
		// paused, block until resumed or stopped.
		for {
			var op ctrlOp
			if paused {
				op = <-r.ctrl
			} else {
				select {
				case op = <-r.ctrl:
				default:
					goto step
				}
			}
			switch op {
			case opPause:
				if !paused {
					paused = true
					s.publish(r, h, StatePaused, em)
				}
			case opResume:
				paused = false
			case opStop:
				s.publish(r, h, StateStopped, em)
				return
			}
		}
	step:
		if h.Done() {
			break
		}
		h.StepTo(next)
		next += period
		if h.Done() {
			break
		}
		s.publish(r, h, StateRunning, em)
		if s.cfg.Pacer != nil {
			s.cfg.Pacer.Pace(period)
		}
	}
	h.Finish()
	s.publish(r, h, StateDone, em)
}

// fail publishes a run's failure: its last published status with the
// state failed and the panic's message, also streamed as a status line.
// The simulation is not read again, since the panic may have left it
// half-stepped, so the run's metric families stay as last published.
func (s *Server) fail(r *Run, em *emitter, msg string) {
	last := r.snap.Load()
	snap := &snapshot{status: last.status, fams: last.fams}
	snap.status.State = StateFailed
	snap.status.Error = msg
	r.snap.Store(snap)
	var buf bytes.Buffer
	em.statusLine(&buf, snap.status)
	s.broker.publish(r.id, buf.Bytes())
}

// maxFinishedRuns bounds the runs the server keeps resident once they
// finish. Each holds its last snapshot (tens of KB), so without a bound
// the server's memory would grow with every run it has ever finished.
const maxFinishedRuns = 64

// evictFinished forgets the oldest finished runs while more than
// maxFinishedRuns runs are resident; an evicted ID answers like an
// unknown one. Running runs are never evicted. The caller holds s.mu.
func (s *Server) evictFinished() {
	over := len(s.order) - maxFinishedRuns
	if over <= 0 {
		return
	}
	keep := s.order[:0]
	for _, id := range s.order {
		if over > 0 && s.runs[id].exited() {
			delete(s.runs, id)
			over--
			continue
		}
		keep = append(keep, id)
	}
	clear(s.order[len(keep):])
	s.order = keep
}

// start registers and launches a run for a compiled scenario.
func (s *Server) start(name string, sc *viator.Scenario, seed uint64) *Run {
	h := viator.StartScenario(sc, seed)
	s.mu.Lock()
	s.nextID++
	r := &Run{
		id:    fmt.Sprintf("r%d", s.nextID),
		name:  name,
		title: sc.Spec.Title,
		seed:  seed,
		ctrl:  make(chan ctrlOp, 8),
		done:  make(chan struct{}),
	}
	s.runs[r.id] = r
	s.order = append(s.order, r.id)
	s.evictFinished()
	s.mu.Unlock()
	// Publish the t=0 view before the driver starts so the run is never
	// observable without a snapshot.
	r.snap.Store(s.buildSnapshot(r, h, StateRunning))
	go s.drive(r, h)
	return r
}
