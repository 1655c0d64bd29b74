package viator

import (
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"strings"

	"viator/internal/sim"
	"viator/internal/stats"
	"viator/internal/telemetry"
)

// CellStat is the aggregate of one numeric table cell across replicates.
type CellStat struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	CI95 float64 `json:"ci95"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// RepCell is one aggregated cell: numeric cells carry a CellStat, cells
// that are the same string in every replicate carry that text, and cells
// that differ non-numerically are marked "varies".
type RepCell struct {
	Text string    `json:"text,omitempty"`
	Stat *CellStat `json:"stat,omitempty"`
}

// Replicated is one experiment's table aggregated over `Reps` independent
// seeds. Rows and Headers mirror the single-run table shape; every numeric
// cell becomes mean ± 95% CI.
type Replicated struct {
	ID       string      `json:"id"`
	Title    string      `json:"title"`
	Reps     int         `json:"reps"`
	BaseSeed uint64      `json:"base_seed"`
	Seeds    []uint64    `json:"seeds"`
	Headers  []string    `json:"headers"`
	Rows     [][]RepCell `json:"rows"`
}

// replicateSeed derives the seed stream root for one experiment. Mixing the
// experiment ID into the base seed keeps a given experiment's replicate
// seeds identical no matter which other experiments are selected, and
// sim.RunParallel then derives per-replicate seeds before any scheduling —
// so results are byte-identical across worker counts.
func replicateSeed(baseSeed uint64, id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return sim.NewRNG(baseSeed ^ h.Sum64()).Uint64()
}

// RunReplicated runs each resolved experiment `reps` times in parallel
// across `workers` goroutines (workers <= 0 selects GOMAXPROCS), with
// deterministic per-replicate seeds derived from baseSeed, and aggregates
// every numeric table cell into mean ± 95% CI. Empty ids selects the whole
// registry. Each replicate's table is validated with the experiment's
// Check; the first failure aborts with an error naming the seed.
func (r *Registry) RunReplicated(ids []string, reps int, baseSeed uint64, workers int) ([]*Replicated, error) {
	if reps < 1 {
		return nil, fmt.Errorf("viator: reps = %d, want >= 1", reps)
	}
	exps, err := r.Resolve(ids)
	if err != nil {
		return nil, err
	}
	out := make([]*Replicated, 0, len(exps))
	for _, e := range exps {
		agg, err := replicateOne(e, reps, baseSeed, workers)
		if err != nil {
			return nil, err
		}
		out = append(out, agg)
	}
	return out, nil
}

// RunReplicated is the package-level convenience over DefaultRegistry.
func RunReplicated(ids []string, reps int, baseSeed uint64, workers int) ([]*Replicated, error) {
	return DefaultRegistry().RunReplicated(ids, reps, baseSeed, workers)
}

type replicate struct {
	seed uint64
	tb   *Table
	err  error
}

func replicateOne(e Experiment, reps int, baseSeed uint64, workers int) (*Replicated, error) {
	trial := func(i int, seed uint64) replicate {
		if reps == 1 {
			// A single replicate replays the base seed verbatim, so
			// `viatorbench -seed 42` reproduces the paper tables exactly.
			seed = baseSeed
		}
		tb := e.Run(seed)
		var err error
		if e.Check != nil {
			err = e.Check(tb)
		}
		return replicate{seed: seed, tb: tb, err: err}
	}
	runs := sim.RunParallel(reps, replicateSeed(baseSeed, e.ID), workers, trial)
	seeds := make([]uint64, len(runs))
	tables := make([]*Table, len(runs))
	for i, run := range runs {
		if run.err != nil {
			return nil, fmt.Errorf("%s replicate %d (seed %d): %w", e.ID, i, run.seed, run.err)
		}
		seeds[i] = run.seed
		tables[i] = run.tb
	}
	return aggregateReplicates(e.ID, e.Title, reps, baseSeed, seeds, tables)
}

// aggregateReplicates folds shape-stable replicate tables (replicate
// order, with their seeds) into the mean ± CI95 aggregate. Shared by the
// registry path (replicateOne) and the scenario path
// (RunScenarioReplicated), so both render replicates identically.
func aggregateReplicates(id, title string, reps int, baseSeed uint64, seeds []uint64, tables []*Table) (*Replicated, error) {
	agg := &Replicated{ID: id, Title: title, Reps: reps, BaseSeed: baseSeed}
	for i, tb := range tables {
		if tb == nil {
			return nil, fmt.Errorf("%s replicate %d (seed %d): Run returned a nil table", id, i, seeds[i])
		}
		agg.Seeds = append(agg.Seeds, seeds[i])
	}
	agg.Headers = tables[0].Headers()
	nRows := tables[0].NumRows()
	for i, tb := range tables {
		if tb.NumRows() != nRows {
			return nil, fmt.Errorf("%s replicate %d (seed %d): %d rows, replicate 0 had %d — tables must be shape-stable to aggregate",
				id, i, seeds[i], tb.NumRows(), nRows)
		}
	}
	nCols := len(agg.Headers)
	for row := 0; row < nRows; row++ {
		cells := make([]RepCell, nCols)
		for col := 0; col < nCols; col++ {
			raw := make([]string, reps)
			for i, tb := range tables {
				raw[i] = tb.Cell(row, col)
			}
			cells[col] = aggregateCell(raw)
		}
		agg.Rows = append(agg.Rows, cells)
	}
	return agg, nil
}

// aggregateCell folds one cell position across replicates. Numeric in every
// replicate wins (even when constant, so replicated tables read uniformly
// as mean ± CI); otherwise an identical string is kept verbatim and
// disagreeing strings collapse to "varies". A single replicate keeps the
// cell text verbatim — so reps=1 reproduces the original table exactly —
// while still carrying the stat for JSON consumers.
func aggregateCell(raw []string) RepCell {
	s := stats.NewSummary()
	numeric := true
	for _, c := range raw {
		v, err := strconv.ParseFloat(c, 64)
		if err != nil {
			numeric = false
			break
		}
		s.Add(v)
	}
	if numeric {
		cell := RepCell{Stat: &CellStat{
			N: s.N(), Mean: s.Mean(), CI95: s.CI95(), Min: s.Min(), Max: s.Max(),
		}}
		if len(raw) == 1 {
			cell.Text = raw[0]
		}
		return cell
	}
	for _, c := range raw[1:] {
		if c != raw[0] {
			return RepCell{Text: "varies"}
		}
	}
	return RepCell{Text: raw[0]}
}

// String renders the cell for aligned/CSV output: "mean ±ci" for numeric
// cells aggregated over 2+ replicates, the verbatim value otherwise.
func (c RepCell) String() string {
	if c.Text != "" || c.Stat == nil {
		return c.Text
	}
	return fmt.Sprintf("%.4g ±%.4g", c.Stat.Mean, c.Stat.CI95)
}

// Table renders the aggregate as an aligned-text table matching the
// single-run layout, with numeric cells as "mean ±ci".
func (a *Replicated) Table() *stats.Table {
	title := fmt.Sprintf("%s — %s  [seed %d]", a.ID, a.Title, a.Seeds[0])
	if a.Reps > 1 {
		title = fmt.Sprintf("%s — %s  [%d replicates, mean ±95%% CI]", a.ID, a.Title, a.Reps)
	}
	t := stats.NewTable(title, a.Headers...)
	for _, row := range a.Rows {
		cells := make([]any, len(row))
		for i, c := range row {
			cells[i] = c.String()
		}
		t.AddRow(cells...)
	}
	return t
}

// seedList renders the replicate seeds compactly for provenance lines.
func (a *Replicated) seedList() string {
	parts := make([]string, len(a.Seeds))
	for i, s := range a.Seeds {
		parts[i] = strconv.FormatUint(s, 10)
	}
	return strings.Join(parts, ",")
}

// Provenance returns a one-line description of how the aggregate was
// produced, suitable for a comment row above CSV output.
func (a *Replicated) Provenance() string {
	return fmt.Sprintf("%s: reps=%d baseSeed=%d seeds=%s", a.ID, a.Reps, a.BaseSeed, a.seedList())
}

// TelemetryResult is one experiment's streaming telemetry collected over
// `Reps` independent seeds: every per-replicate dump (replicate order)
// plus the pooled merge — histograms folded bucket-wise, scorecards
// folded by flow — which answers quantile questions over the union of
// all replicates' observations, not an average of averages.
type TelemetryResult struct {
	ID       string
	Title    string
	Reps     int
	BaseSeed uint64
	Seeds    []uint64
	Dumps    []*telemetry.Dump
	Merged   *telemetry.Dump
}

// CollectTelemetry runs every telemetry-capable experiment in ids (empty
// selects all of them) for `reps` replicates fanned over `workers`
// goroutines, and merges the per-replicate dumps. Seeds come from the
// same per-experiment deterministic streams as RunReplicated — derived
// before any scheduling and merged in replicate order — so the collected
// telemetry (and every byte exported from it) is identical for any
// worker count, and replicate i of experiment E sees the same seed a
// table run would.
func (r *Registry) CollectTelemetry(ids []string, reps int, baseSeed uint64, workers int) ([]*TelemetryResult, error) {
	if reps < 1 {
		return nil, fmt.Errorf("viator: reps = %d, want >= 1", reps)
	}
	exps, err := r.Resolve(ids)
	if err != nil {
		return nil, err
	}
	var capable []Experiment
	for _, e := range exps {
		if e.Telemetry != nil {
			capable = append(capable, e)
		}
	}
	if len(capable) == 0 {
		return nil, fmt.Errorf("viator: no telemetry-capable experiment in the selection (the stress scenarios S1, S2 export telemetry)")
	}
	out := make([]*TelemetryResult, 0, len(capable))
	for _, e := range capable {
		res := &TelemetryResult{ID: e.ID, Title: e.Title, Reps: reps, BaseSeed: baseSeed}
		type trial struct {
			seed uint64
			dump *telemetry.Dump
		}
		runs := sim.RunParallel(reps, replicateSeed(baseSeed, e.ID), workers, func(i int, seed uint64) trial {
			if reps == 1 {
				// Mirror replicateOne: a single replicate replays the base
				// seed verbatim, so -telemetry matches `-seed N` table runs.
				seed = baseSeed
			}
			return trial{seed: seed, dump: e.Telemetry(seed)}
		})
		for i, run := range runs {
			if run.dump == nil {
				return nil, fmt.Errorf("%s replicate %d (seed %d): Telemetry returned a nil dump", e.ID, i, run.seed)
			}
			res.Seeds = append(res.Seeds, run.seed)
			res.Dumps = append(res.Dumps, run.dump)
		}
		res.Merged = telemetry.MergeDumps(res.Dumps)
		out = append(out, res)
	}
	return out, nil
}

// CollectTelemetry is the package-level convenience over DefaultRegistry.
func CollectTelemetry(ids []string, reps int, baseSeed uint64, workers int) ([]*TelemetryResult, error) {
	return DefaultRegistry().CollectTelemetry(ids, reps, baseSeed, workers)
}

// WriteJSONL streams the result as JSON-lines: a provenance header, every
// replicate's series/histogram/flow lines tagged with its replicate
// index and seed, then the pooled cross-replicate merge tagged
// "merged":true. Deterministic: same (ids, reps, seed) → same bytes, for
// any worker count.
func (tr *TelemetryResult) WriteJSONL(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "{\"kind\":\"run\",\"exp\":%q,\"reps\":%d,\"base_seed\":%d,\"seeds\":[%s]}\n",
		tr.ID, tr.Reps, tr.BaseSeed, tr.seedList()); err != nil {
		return err
	}
	for i, d := range tr.Dumps {
		tags := fmt.Sprintf("\"exp\":%q,\"rep\":%d,\"seed\":%d", tr.ID, i, tr.Seeds[i])
		if err := d.WriteJSONL(w, tags); err != nil {
			return err
		}
	}
	return tr.Merged.WriteJSONL(w, fmt.Sprintf("\"exp\":%q,\"merged\":true", tr.ID))
}

// WritePromSnapshot writes one valid Prometheus text-format snapshot of
// every result's pooled cross-replicate merge: a single TYPE line per
// metric family with all experiments' samples (told apart by their exp
// label) grouped under it.
func WritePromSnapshot(w io.Writer, results []*TelemetryResult) error {
	groups := make([][]telemetry.PromFamily, len(results))
	for i, tr := range results {
		groups[i] = telemetry.PromFamilies(tr.Merged, fmt.Sprintf("exp=%q", tr.ID))
	}
	return telemetry.WritePromFamilies(w, groups...)
}

// seedList renders the replicate seeds compactly.
func (tr *TelemetryResult) seedList() string {
	parts := make([]string, len(tr.Seeds))
	for i, s := range tr.Seeds {
		parts[i] = strconv.FormatUint(s, 10)
	}
	return strings.Join(parts, ",")
}
