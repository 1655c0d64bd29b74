package viator

import (
	"bytes"
	"fmt"
	"testing"

	"viator/internal/telemetry"
	"viator/internal/trace"
)

// liveShardSpec is a cheap sharded spec for the stepped-execution
// equivalence property: 4 trunked districts, churn, healing, local and
// cross-district traffic.
const liveShardSpec = `{
  "name": "liveshard",
  "title": "liveshard: stepped sharded determinism probe",
  "ships": 400,
  "horizon": 2.0,
  "row_every": 1.0,
  "arena": {"kind": "mobile", "side": 300.0, "radius": 75.0, "refresh": 1.0,
            "min_speed": 2, "max_speed": 10, "pause": 1},
  "shards": 4,
  "trunk": {"bandwidth": 10485760, "delay": 0.02, "queue_cap": 1048576},
  "cross_traffic": {"period": 0.25, "overlay": "backbone"},
  "pulse_period": 1.0,
  "heal_period": 1.0,
  "slo": {"quantile": 0.95, "max_latency": 0.100, "min_delivery_ratio": 0.30},
  "jets": [{"at": 0, "role": "caching", "fanout": 2}],
  "churn": {"period": 0.5},
  "traffic": [{"kind": "uniform", "period": 0.05}],
  "asserts": {"flows": [{"flow": "", "min_delivery_ratio": 0.20}]}
}
`

// renderResult flattens everything a run produced — trajectory table,
// verdicts and (when present) the full telemetry export including trace
// lines — into one byte blob for equivalence comparison.
func renderResult(t *testing.T, res *ScenarioResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(res.Table().String())
	for _, v := range res.Verdicts {
		fmt.Fprintf(&buf, "%s %t %s\n", v.Name, v.Pass, v.Detail)
	}
	if res.Dump != nil {
		if err := res.Dump.WriteJSONL(&buf, ""); err != nil {
			t.Fatalf("WriteJSONL: %v", err)
		}
	}
	return buf.Bytes()
}

// observe exercises every read-only surface of a paused handle the live
// server touches between steps: status, Prometheus families from the
// live sinks, and the trace cursor. The equivalence assertion below is
// what makes these reads provably non-perturbing.
func observe(h *RunHandle, cursor uint64) uint64 {
	st := h.Status()
	_ = st.Flows
	if tel := h.Telemetry(); tel != nil {
		var sink bytes.Buffer
		if err := telemetry.WritePromFamilies(&sink,
			telemetry.PromFamilies(tel.Dump(), `run="live"`)); err != nil {
			panic(err)
		}
	}
	if tr := h.Trace(); tr != nil {
		cursor = tr.EachSince(cursor, func(trace.Event) {})
	}
	return cursor
}

func TestLiveRunMatchesBatch(t *testing.T) {
	sc, err := ParseScenario([]byte(propertySpec))
	if err != nil {
		t.Fatal(err)
	}
	const seed = 42
	want := renderResult(t, sc.Run(seed))
	for _, dt := range []float64{0.3, 1.0, 5.0} {
		h := StartScenario(sc, seed)
		var cursor uint64
		for next := dt; !h.Done(); next += dt {
			h.StepTo(next)
			if now := h.Now(); now != min(next, h.Horizon()) {
				t.Fatalf("dt=%v: Now() = %v after StepTo(%v)", dt, now, next)
			}
			cursor = observe(h, cursor)
		}
		got := renderResult(t, h.Finish())
		if !bytes.Equal(got, want) {
			t.Fatalf("dt=%v: stepped observed run diverged from batch run", dt)
		}
	}
}

func TestLiveRunMatchesBatchSharded(t *testing.T) {
	sc, err := ParseScenario([]byte(liveShardSpec))
	if err != nil {
		t.Fatal(err)
	}
	const seed = 7
	want := renderResult(t, sc.Run(seed))
	for _, dt := range []float64{0.5, 3.0} {
		h := StartScenario(sc, seed)
		for next := dt; !h.Done(); next += dt {
			h.StepTo(next)
			observe(h, 0) // sharded: status only (Telemetry/Trace are nil)
			if h.Telemetry() != nil || h.Trace() != nil {
				t.Fatal("sharded handle leaked single-kernel accessors")
			}
		}
		got := renderResult(t, h.Finish())
		if !bytes.Equal(got, want) {
			t.Fatalf("dt=%v: stepped sharded run diverged from batch run", dt)
		}
	}
}

func TestLiveStatusProgress(t *testing.T) {
	sc, err := ParseScenario([]byte(propertySpec))
	if err != nil {
		t.Fatal(err)
	}
	h := StartScenario(sc, 1)
	if st := h.Status(); st.Now != 0 || st.Done {
		t.Fatalf("fresh handle status = %+v", st)
	}
	h.StepTo(2.0)
	st := h.Status()
	if st.Now != 2.0 || st.Done || st.Horizon != sc.Spec.Horizon {
		t.Fatalf("mid-run status = %+v", st)
	}
	if st.Delivered == 0 || len(st.Flows) == 0 {
		t.Fatalf("expected mid-run traffic in status, got %+v", st)
	}
	res := h.Finish()
	if !h.Done() || h.Result() != res || h.Finish() != res {
		t.Fatal("Finish not idempotent or Done unset")
	}
}

func TestBuiltinScenario(t *testing.T) {
	for _, name := range []string{"s1", "S2", "s3s"} {
		if _, ok := BuiltinScenario(name); !ok {
			t.Fatalf("builtin %q not found", name)
		}
	}
	if _, ok := BuiltinScenario("nope"); ok {
		t.Fatal("unknown builtin resolved")
	}
}
