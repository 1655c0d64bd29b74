package viator

import (
	"strings"

	"viator/internal/telemetry"
	"viator/internal/trace"
)

// RunHandle is the one advance path of the district compiler (see
// scenario.go): a run held open between steps. The batch Scenario.Run is
// StartScenario → Finish on it, so an observed stepped run and an
// unobserved batch run share every line of simulation code
// (TestLiveRunMatchesBatch and the serve race test pin it anyway).
//
// Concurrency: a RunHandle is single-goroutine. The owning driver calls
// StepTo/Finish and, while the handle is quiescent between those calls,
// may read Status/Telemetry/Trace — all read-only over simulation state.
// The live server does all of it on one goroutine and publishes immutable
// snapshots to its HTTP handlers.

// RunHandle is one scenario run in progress.
type RunHandle struct {
	sc   *Scenario
	seed uint64
	r    *fleetRun
	res  *ScenarioResult
	done bool
}

// StartScenario arms sc for one seed, at the shard-kernel count the
// process override resolves to (SetShardOverride), and returns the paused
// run at sim time zero.
func StartScenario(sc *Scenario, seed uint64) *RunHandle {
	return startScenario(sc, seed, sc.shardKernels())
}

// startScenario is StartScenario at k shard kernels, a divisor of the
// district count (1 for an unsharded spec).
func startScenario(sc *Scenario, seed uint64, k int) *RunHandle {
	return &RunHandle{sc: sc, seed: seed, r: sc.start(seed, k)}
}

// Scenario returns the compiled scenario the handle runs.
func (h *RunHandle) Scenario() *Scenario { return h.sc }

// Seed returns the run's seed.
func (h *RunHandle) Seed() uint64 { return h.seed }

// Horizon returns the spec's end-of-run sim time.
func (h *RunHandle) Horizon() float64 { return h.sc.Spec.Horizon }

// Done reports whether the run has reached the horizon.
func (h *RunHandle) Done() bool { return h.done }

// Now returns the run's current sim time: the slowest shard clock (the
// conservative bound on what has definitely happened).
func (h *RunHandle) Now() float64 { return h.r.group.Now() }

// StepTo advances the run to sim time t (clamped to the horizon) and
// pauses, through ShardGroup.StepTo: a one-district run steps its
// one-shard group straight to t, exactly as Kernel.Run(t) would; a
// sharded run advances whole windows cut against the horizon until the
// slowest district passes t, so the step sequence never changes the
// window partition or the cross-shard mail commit order.
func (h *RunHandle) StepTo(t float64) {
	if !h.done {
		h.done = h.r.group.StepTo(t, h.Horizon())
	}
}

// Finish drives the run to the horizon if needed and seals the result:
// ticker stops, dump packaging, assertion evaluation. Idempotent.
func (h *RunHandle) Finish() *ScenarioResult {
	if h.res == nil {
		h.StepTo(h.Horizon())
		h.res = h.r.finish()
	}
	return h.res
}

// Result returns the sealed result, nil before Finish.
func (h *RunHandle) Result() *ScenarioResult { return h.res }

// Telemetry exposes the run's live sinks for read-only rendering while
// the handle is paused. Nil for runs of more than one district (no single
// recorder exists; Status still reports their merged scorecards).
func (h *RunHandle) Telemetry() *Telemetry {
	if len(h.r.ds) != 1 {
		return nil
	}
	return h.r.ds[0].tel
}

// Trace exposes the run's structured trace ring, nil for runs of more
// than one district.
func (h *RunHandle) Trace() *trace.Log {
	if len(h.r.ds) != 1 {
		return nil
	}
	return h.r.ds[0].n.Trace
}

// LiveStatus is a read-only mid-run summary of a paused handle.
type LiveStatus struct {
	Now       float64
	Horizon   float64
	Done      bool
	AliveFrac float64
	Delivered uint64
	Lost      uint64
	// Flows are the per-flow scorecards registered so far (registration
	// happens when traffic first touches a flow; observing never adds
	// one), with current SLO verdicts.
	Flows []telemetry.FlowReport
}

// Status summarizes the paused run over the merged district view. Every
// read is observational: no flow registration, no RNG draws, no kernel
// events — the status of an observed run leaves its future bytes
// untouched.
func (h *RunHandle) Status() LiveStatus {
	t := h.r.totals()
	st := LiveStatus{
		Now: h.Now(), Horizon: h.Horizon(), Done: h.done,
		AliveFrac: float64(t.alive) / float64(h.sc.Spec.Ships),
		Delivered: t.delivered, Lost: t.lost,
	}
	if t.qos.NumFlows() > 0 {
		st.Flows = t.qos.Reports()
	}
	return st
}

// BuiltinScenario resolves a builtin scenario by name (case-insensitive:
// s1, s2, s3, s3s) — the specs the live server can start without being
// handed a spec body.
func BuiltinScenario(name string) (*Scenario, bool) {
	switch strings.ToUpper(name) {
	case "S1":
		return scenarioS1, true
	case "S2":
		return scenarioS2, true
	case "S3":
		return scenarioS3, true
	case "S3S":
		return scenarioS3S, true
	}
	return nil, false
}
