// Package bench holds the viatorperf benchmark's data files: the
// transport workload's spec and the stored output digests.
package bench

import _ "embed"

// TransportSpec is the scenario spec the transport workload runs.
//
//go:embed workloads/transport.json
var TransportSpec []byte

// Digests is testdata/digests.json: the SHA-256 of each workload's output
// per seed, generated by `viatorperf digests`.
//
//go:embed testdata/digests.json
var Digests []byte
