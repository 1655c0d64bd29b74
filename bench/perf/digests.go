package perf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"viator"
	"viator/bench"
)

// DigestFile is testdata/digests.json: per digest table (named after the
// workload that owns it), the output digest of each seed from BaseSeed.
type DigestFile struct {
	BaseSeed  uint64                       `json:"base_seed"`
	Workloads map[string]map[string]string `json:"workloads"`
}

// loadDigests parses a digest file into per-table seed→digest maps.
func loadDigests(data []byte) (map[string]map[uint64]string, error) {
	var f DigestFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("digests: %w", err)
	}
	out := make(map[string]map[uint64]string, len(f.Workloads))
	for table, seeds := range f.Workloads {
		m := make(map[uint64]string, len(seeds))
		for s, d := range seeds {
			seed, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("digests: %s: bad seed %q", table, s)
			}
			m[seed] = d
		}
		out[table] = m
	}
	return out, nil
}

// StoredDigests returns the digests embedded in the benchmark.
func StoredDigests() (map[string]map[uint64]string, error) {
	return loadDigests(bench.Digests)
}

// DigestBaseSeed is the base seed stored digests start from — the paper's
// seed, and the seed the README's numbers were measured at.
const DigestBaseSeed = 42

// digestSeeds is how many seeds from DigestBaseSeed each table stores:
// more than a 15-second run at seed 42 gets through on a 2-core machine.
// serve-observed checks against the s1-metropolis table.
var digestSeeds = []struct {
	table string
	n     int
}{
	{"s1-metropolis", 40},
	{"s2-megalopolis", 10},
	{"s3s-sharded", 24},
	{"transport", 16},
	{"paper-catalog", 96},
}

// GenerateDigests computes the digest table from batch runs — sc.Run for
// the scenarios, one RunReplicated call over all paper IDs for the
// catalog — which the benchmark's stepped and per-experiment runs must
// reproduce. Before that it checks the S1 and S2 batch tables against the
// repository's goldens in goldenDir.
func GenerateDigests(goldenDir string, log io.Writer) (*DigestFile, error) {
	s1, _ := viator.BuiltinScenario("s1")
	s2, _ := viator.BuiltinScenario("s2")
	for _, g := range []struct {
		sc   *viator.Scenario
		seed uint64
		file string
	}{
		{s1, 42, "S1_table_seed42.txt"},
		{s1, 7, "S1_table_seed7.txt"},
		{s2, 42, "S2_table_seed42.txt"},
	} {
		want, err := os.ReadFile(filepath.Join(goldenDir, g.file))
		if err != nil {
			return nil, err
		}
		if got := g.sc.Run(g.seed).Table().String(); !bytes.Equal([]byte(got), want) {
			return nil, fmt.Errorf("%s: batch table differs from the golden", g.file)
		}
		fmt.Fprintf(log, "viatorperf: %s matches\n", g.file)
	}

	transport, err := viator.ParseScenario(bench.TransportSpec)
	if err != nil {
		return nil, fmt.Errorf("transport spec: %w", err)
	}
	s3s, _ := viator.BuiltinScenario("s3s")
	scenarios := map[string]*viator.Scenario{
		"s1-metropolis": s1, "s2-megalopolis": s2, "s3s-sharded": s3s, "transport": transport,
	}
	reg := viator.DefaultRegistry()
	ids := paperIDs(reg)

	viator.SetShardOverride(s3sShards)
	defer viator.SetShardOverride(0)
	f := &DigestFile{BaseSeed: DigestBaseSeed, Workloads: map[string]map[string]string{}}
	for _, t := range digestSeeds {
		seeds := map[string]string{}
		for i := 0; i < t.n; i++ {
			seed := uint64(DigestBaseSeed + i)
			var d string
			if sc, ok := scenarios[t.table]; ok {
				d = scenarioDigest(sc.Run(seed))
			} else {
				reps, err := reg.RunReplicated(ids, paperReps, seed, paperWorkers)
				if err != nil {
					return nil, err
				}
				doc, err := json.Marshal(reps)
				if err != nil {
					return nil, err
				}
				d = paperDigest(doc)
			}
			seeds[strconv.FormatUint(seed, 10)] = d
		}
		f.Workloads[t.table] = seeds
		fmt.Fprintf(log, "viatorperf: %s: %d digests\n", t.table, t.n)
	}
	return f, nil
}
