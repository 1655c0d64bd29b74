// Package mobility implements the physical layer of the Wandering
// Network: random-waypoint node mobility and radio-range connectivity
// synthesis that keeps a topology graph in sync with current node
// positions.
//
// The paper's ships are *mobile* active nodes; mobility is what turns the
// routing problem adaptive. The model is deterministic given an RNG, and
// StepInto advances it into a caller-owned buffer, so a simulation loop
// holds one positions slice for its whole life (0 allocs per step).
//
// ConnScratch.RefreshInto is the one way links are built from positions,
// for static arenas (one call) and mobile ones (one call per refresh).
// Candidate pairs come from a uniform-grid spatial hash, so only a small
// grid neighborhood of each node is visited: O(n·k). The first call on a
// scratch reconciles the whole graph — every link down, in-range pairs
// up with cost = distance; on a graph with no links that is one
// reservation and a Connect per link. Later calls diff against the
// previous refresh's neighbor sets and toggle only links whose endpoints
// actually crossed radio range; costs are rewritten only for pairs still
// in range, so a refresh where nothing moved leaves topo.Graph.Version
// untouched and the routing control plane's pulse gate can skip
// recomputation.
//
// Both forms create links in the same (i<j) lexicographic order as the
// brute-force O(n²) oracle the tests keep, so every link index,
// adjacency order and downstream routing tie-break is identical. That is
// the determinism contract that keeps experiment output byte-identical
// whichever form refreshed connectivity.
package mobility

import (
	"math"

	"viator/internal/sim"
	"viator/internal/topo"
)

// RandomWaypoint is the classic ad-hoc mobility model: each node picks a
// uniform destination in the arena, moves toward it at a uniform speed in
// [MinSpeed,MaxSpeed], pauses, then repeats.
type RandomWaypoint struct {
	Side               float64
	MinSpeed, MaxSpeed float64
	Pause              float64

	rng   *sim.RNG
	pos   []topo.Point
	dst   []topo.Point
	speed []float64
	wait  []float64
}

// NewRandomWaypoint places n nodes uniformly in a Side×Side arena.
func NewRandomWaypoint(n int, side, minSpeed, maxSpeed, pause float64, rng *sim.RNG) *RandomWaypoint {
	m := &RandomWaypoint{
		Side: side, MinSpeed: minSpeed, MaxSpeed: maxSpeed, Pause: pause,
		rng:   rng,
		pos:   make([]topo.Point, n),
		dst:   make([]topo.Point, n),
		speed: make([]float64, n),
		wait:  make([]float64, n),
	}
	for i := range m.pos {
		m.pos[i] = topo.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
		m.pickDst(i)
	}
	return m
}

func (m *RandomWaypoint) pickDst(i int) {
	m.dst[i] = topo.Point{X: m.rng.Float64() * m.Side, Y: m.rng.Float64() * m.Side}
	m.speed[i] = m.MinSpeed + m.rng.Float64()*(m.MaxSpeed-m.MinSpeed)
}

// StepInto advances every node by dt seconds and appends the positions
// into dst[:0], returning the (possibly regrown) buffer. Once dst has
// the fleet's capacity, stepping allocates nothing.
//
//viator:noalloc
func (m *RandomWaypoint) StepInto(dst []topo.Point, dt float64) []topo.Point {
	for i := range m.pos {
		remain := dt
		for remain > 0 {
			if m.wait[i] > 0 {
				w := math.Min(m.wait[i], remain)
				m.wait[i] -= w
				remain -= w
				continue
			}
			d := m.pos[i].Dist(m.dst[i])
			if d < 1e-9 {
				m.wait[i] = m.Pause
				m.pickDst(i)
				continue
			}
			travel := m.speed[i] * remain
			if travel >= d {
				m.pos[i] = m.dst[i]
				remain -= d / m.speed[i]
				m.wait[i] = m.Pause
				m.pickDst(i)
			} else {
				f := travel / d
				m.pos[i].X += (m.dst[i].X - m.pos[i].X) * f
				m.pos[i].Y += (m.dst[i].Y - m.pos[i].Y) * f
				remain = 0
			}
		}
	}
	return append(dst[:0], m.pos...)
}

// Positions returns current positions without advancing time.
func (m *RandomWaypoint) Positions() []topo.Point { return m.pos }

// ensureDirected re-activates the existing a→b link if present (a
// LinkBetween scan of a's out-links), otherwise adds one, keeping the
// link table from growing without bound under repeated connectivity
// refreshes. It returns the link's index so refresh paths can remember
// it and skip even the scan next time the pair is seen.
func ensureDirected(g *topo.Graph, a, b topo.NodeID, cost float64) int32 {
	if li := g.LinkBetween(a, b); li >= 0 {
		g.SetCost(li, cost)
		g.SetUp(li, true)
		return int32(li)
	}
	return int32(g.Connect(a, b, cost))
}

// maxGridCellsPerNode bounds the spatial hash's cell count relative to the node
// count: pathological radius/arena ratios (tiny radius, huge arena) would
// otherwise demand an unbounded grid. Cells only ever grow — a coarser
// cell is still correct, it just admits more candidates per neighborhood.
const maxGridCellsPerNode = 4

// ConnScratch is the reusable working memory of spatial-hash connectivity
// synthesis: the uniform grid (a counting-sort CSR of node indexes per
// cell), the per-node candidate buffer, and the previous refresh's
// neighbor sets that RefreshInto diffs against. One scratch serves one
// graph; it is not safe for concurrent use.
//
// The scratch assumes it is the only writer of the graph's link state
// between refreshes — external SetUp/SetCost calls on radio links would
// desynchronize the remembered neighbor sets from the graph.
type ConnScratch struct {
	// Spatial hash, rebuilt each refresh in O(n + cells). cellPos mirrors
	// cellNodes with the nodes' positions, so the candidate scan streams
	// one packed, sequential (index, position) array instead of chasing
	// node indexes through the positions slice.
	cellOf    []int32      // node -> cell index
	cellStart []int32      // CSR offsets, len cells+1
	cellNext  []int32      // fill cursor during bucket sort
	cellNodes []int32      // node indexes grouped by cell, ascending within each
	cellPos   []topo.Point // positions in cellNodes order

	// Diff working state: mark/markIdx implement O(1) membership tests
	// against the previous neighbor set (tag increments per node per
	// refresh, so clearing is never needed), appear collects the entries
	// of pairs that just came into range.
	mark    []uint64
	markIdx []int32
	tag     uint64
	appear  []int32

	// Neighbor sets (j>i only, ascending) of the current and previous
	// refresh, as CSR over nodes. curDist carries the pair distances so
	// the diff pass does not recompute them; the AB/BA arrays carry the
	// i→j and j→i link indexes, so surviving and departing pairs touch
	// their links directly instead of scanning the graph's adjacency
	// (LinkBetween is only consulted when a pair comes into range at a
	// later refresh, or when a graph that already has links is
	// reconciled).
	curStart  []int32
	curNbr    []int32
	curDist   []float64
	curAB     []int32
	curBA     []int32
	prevStart []int32
	prevNbr   []int32
	prevAB    []int32
	prevBA    []int32

	// seeded marks that prev{Start,Nbr} mirror the graph's link state; the
	// first refresh (gridRefresh) establishes it with a full
	// down-all/up-in-range reconcile.
	seeded bool
}

// resize returns s with length n, reusing its backing array when large
// enough. Contents are unspecified — callers reinitialize — except that
// grown buffers come back zeroed (make), which the stamp scheme relies
// on: tags only ever increase, so a zero (or any stale tag) can never
// collide with a future tag.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// buildGrid hashes pos into a uniform grid and fills the scratch's CSR
// buckets. Cells start at radius/2 — a (2·reach+1)² neighborhood of
// fine cells covers ~6.25r² of arena instead of the classic 3×3's 9r²,
// a ~30% cut in scanned candidates — and double (with reach recomputed)
// until the cell count is proportional to the node count. Nodes are
// inserted in ascending index order, so every cell's node list is
// ascending. Returns the grid shape and the neighborhood reach in cells.
func (s *ConnScratch) buildGrid(pos []topo.Point, radius float64) (minX, minY, cell float64, cols, rows, reach int32) {
	n := len(pos)
	if n == 0 {
		s.cellOf = s.cellOf[:0]
		s.cellStart = resize(s.cellStart, 2)
		s.cellStart[0], s.cellStart[1] = 0, 0
		s.cellNodes = s.cellNodes[:0]
		return 0, 0, 1, 1, 1, 0
	}
	minX, minY = math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range pos {
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
	}
	cell = radius / 2
	if cell <= 0 {
		// Degenerate radius: any positive cell size works — only pairs at
		// distance <= radius (i.e. coincident points when radius is 0)
		// survive the exact distance check below.
		cell = 1
	}
	for {
		cols = int32((maxX-minX)/cell) + 1
		rows = int32((maxY-minY)/cell) + 1
		if int(cols)*int(rows) <= maxGridCellsPerNode*n+16 {
			break
		}
		cell *= 2
	}
	// Any in-range partner is at most ceil(radius/cell) cells away on
	// either axis, whatever cell size the cap loop settled on.
	if radius > 0 {
		reach = int32(math.Ceil(radius / cell))
	}
	cells := int(cols) * int(rows)
	s.cellOf = resize(s.cellOf, n)
	s.cellStart = resize(s.cellStart, cells+1)
	s.cellNext = resize(s.cellNext, cells)
	s.cellNodes = resize(s.cellNodes, n)
	s.cellPos = resize(s.cellPos, n)
	for c := 0; c <= cells; c++ {
		s.cellStart[c] = 0
	}
	for i := 0; i < n; i++ {
		cx := int32((pos[i].X - minX) / cell)
		cy := int32((pos[i].Y - minY) / cell)
		// Clamp: the max-coordinate node lands exactly on the grid edge.
		if cx >= cols {
			cx = cols - 1
		}
		if cy >= rows {
			cy = rows - 1
		}
		c := cy*cols + cx
		s.cellOf[i] = c
		s.cellStart[c+1]++
	}
	for c := 0; c < cells; c++ {
		s.cellStart[c+1] += s.cellStart[c]
		s.cellNext[c] = s.cellStart[c]
	}
	for i := 0; i < n; i++ {
		c := s.cellOf[i]
		at := s.cellNext[c]
		s.cellNodes[at] = int32(i)
		s.cellPos[at] = pos[i]
		s.cellNext[c]++
	}
	return minX, minY, cell, cols, rows, reach
}

// gatherCur enumerates, for every node i, the in-range partners j>i from
// the (2·reach+1)² grid neighborhood into the scratch's current neighbor
// CSR.
// Within a node the partners arrive in grid-cell order, not ascending —
// the paths that create links (reconcileAll, the diff's appear case)
// order the entries they need themselves, so the common case never pays
// for sorting.
func (s *ConnScratch) gatherCur(pos []topo.Point, radius float64) {
	n := len(pos)
	_, _, _, cols, rows, reach := s.buildGrid(pos, radius)
	s.curStart = resize(s.curStart, n+1)
	s.curNbr = s.curNbr[:0]
	s.curDist = s.curDist[:0]
	// Squared-distance prefilter: rejecting a candidate needs no sqrt.
	// The bound is inflated by a few ulps because sq > r·r does not quite
	// imply sqrt(sq) > r in floating point; borderline survivors take the
	// exact test below, so in-range decisions — and costs — are
	// bit-identical to the oracle's pos[i].Dist(pos[j]) > radius.
	// (sqrt(sq) itself equals Dist: both round the same dx·dx+dy·dy.)
	rr := radius * radius
	rrHi := rr + rr*1e-9
	nodes, pts := s.cellNodes, s.cellPos
	for i := 0; i < n; i++ {
		seg := int32(len(s.curNbr))
		s.curStart[i] = seg
		c := s.cellOf[i]
		cx, cy := c%cols, c/cols
		pi := pos[i]
		x0, x1 := cx-reach, cx+reach
		if x0 < 0 {
			x0 = 0
		}
		if x1 > cols-1 {
			x1 = cols - 1
		}
		for dy := -reach; dy <= reach; dy++ {
			ny := cy + dy
			if ny < 0 || ny >= rows {
				continue
			}
			lo := ny*cols + x0
			hi := ny*cols + x1
			// The row's neighborhood cells are contiguous in the CSR, so
			// the scan is one packed sequential pass per row. Squared
			// distances are stored here; the loop below converts them.
			for e, end := s.cellStart[lo], s.cellStart[hi+1]; e < end; e++ {
				j := nodes[e]
				if int(j) <= i {
					continue
				}
				pj := pts[e]
				ddx := pi.X - pj.X
				ddy := pi.Y - pj.Y
				sq := ddx*ddx + ddy*ddy
				if sq > rrHi {
					continue
				}
				s.curNbr = append(s.curNbr, j)
				s.curDist = append(s.curDist, sq)
			}
		}
		// Exact pass: independent sqrts pipeline far better than one
		// fused into the scan's dependency chain. The handful of
		// borderline prefilter survivors (sq <= rrHi but d > radius) are
		// compacted away here.
		w := seg
		nbr, dist := s.curNbr, s.curDist
		for e := seg; e < int32(len(nbr)); e++ {
			d := math.Sqrt(dist[e])
			if d > radius {
				continue
			}
			nbr[w] = nbr[e]
			dist[w] = d
			w++
		}
		s.curNbr = nbr[:w]
		s.curDist = dist[:w]
	}
	s.curStart[n] = int32(len(s.curNbr))
	s.curAB = resize(s.curAB, len(s.curNbr))
	s.curBA = resize(s.curBA, len(s.curNbr))
}

// commit makes the just-gathered neighbor sets (and their link indexes)
// the baseline for the next refresh's diff.
func (s *ConnScratch) commit() {
	s.prevStart, s.curStart = s.curStart, s.prevStart
	s.prevNbr, s.curNbr = s.curNbr, s.prevNbr
	s.prevAB, s.curAB = s.curAB, s.prevAB
	s.prevBA, s.curBA = s.curBA, s.prevBA
	s.seeded = true
}

// setPositions mirrors pos into the graph's geometry, as every refresh
// form does.
func setPositions(g *topo.Graph, pos []topo.Point) {
	for i := 0; i < g.N(); i++ {
		g.SetPos(topo.NodeID(i), pos[i])
	}
}

// gridRefresh is RefreshInto's full reconcile: every link flaps down and
// in-range pairs come back up with cost = distance, candidate pairs
// coming from the spatial hash: O(n·k + links). Graph state afterwards,
// including link creation order, is identical to the brute-force
// oracle's. Returns the directed up-link count.
func (s *ConnScratch) gridRefresh(g *topo.Graph, pos []topo.Point, radius float64) int {
	setPositions(g, pos)
	s.gatherCur(pos[:g.N()], radius)
	up := s.reconcileAll(g)
	s.commit()
	return up
}

// sortSegment orders one node's gathered neighbors ascending by index,
// keeping the distance array aligned. Insertion sort: segments are ~k/2
// elements.
func (s *ConnScratch) sortSegment(lo, hi int32) {
	nbr, dist := s.curNbr, s.curDist
	for a := lo + 1; a < hi; a++ {
		j, d := nbr[a], dist[a]
		b := a - 1
		for b >= lo && nbr[b] > j {
			nbr[b+1], dist[b+1] = nbr[b], dist[b]
			b--
		}
		nbr[b+1], dist[b+1] = j, d
	}
}

// reconcileAll applies the flap semantics: down every link, then raise
// the gathered in-range pairs in (i<j) order, remembering every pair's
// link indexes for the next diff. Segments are sorted here — this path
// creates links wholesale, so the lexicographic creation order the
// determinism contract demands is established before touching the graph.
//
// On a graph with no links — every first refresh in a run — there is
// nothing to flap and no link to reuse, so each pair is connected
// directly, in the same order, after one Reserve sized from the gathered
// pairs: the link table and every adjacency grow once instead of link by
// link, and no LinkBetween scan runs.
func (s *ConnScratch) reconcileAll(g *topo.Graph) int {
	n := g.N()
	fresh := g.Links() == 0
	if fresh {
		g.Reserve(s.outDegrees(n))
	}
	for i := 0; i < g.Links(); i++ {
		g.SetUp(i, false)
	}
	for i := 0; i < n; i++ {
		s.sortSegment(s.curStart[i], s.curStart[i+1])
		a := topo.NodeID(i)
		for e := s.curStart[i]; e < s.curStart[i+1]; e++ {
			b := topo.NodeID(s.curNbr[e])
			d := s.curDist[e]
			if fresh {
				s.curAB[e] = int32(g.Connect(a, b, d))
				s.curBA[e] = int32(g.Connect(b, a, d))
			} else {
				s.curAB[e] = ensureDirected(g, a, b, d)
				s.curBA[e] = ensureDirected(g, b, a, d)
			}
		}
	}
	return 2 * len(s.curNbr)
}

// outDegrees counts, from the gathered pairs, the out-links each of the
// n nodes gets when every pair is connected both ways.
func (s *ConnScratch) outDegrees(n int) []int32 {
	deg := make([]int32, n)
	for i := 0; i < n; i++ {
		deg[i] += s.curStart[i+1] - s.curStart[i]
		for _, j := range s.curNbr[s.curStart[i]:s.curStart[i+1]] {
			deg[j]++
		}
	}
	return deg
}

// RefreshInto is the incremental connectivity refresh: candidate pairs
// come from the spatial hash, and the result is diffed against the
// previous refresh's neighbor sets so only links whose endpoints actually
// crossed radio range are toggled. Pairs still in range get their cost
// rewritten to the current distance (a no-op — and no Version movement —
// when nothing moved). The first call on a scratch performs a full
// reconcile (gridRefresh) to establish the baseline.
//
// Returns the directed up-link count after the refresh. Steady-state
// calls allocate nothing.
//
//viator:noalloc
func (s *ConnScratch) RefreshInto(g *topo.Graph, pos []topo.Point, radius float64) int {
	if !s.seeded || len(s.prevStart) != g.N()+1 {
		// First refresh, or the node set changed: no usable baseline.
		return s.gridRefresh(g, pos, radius)
	}
	setPositions(g, pos)
	n := g.N()
	s.gatherCur(pos[:n], radius)
	s.mark = resize(s.mark, n)       //viator:alloc-ok amortized scratch growth when the fleet grows; steady state untouched
	s.markIdx = resize(s.markIdx, n) //viator:alloc-ok amortized scratch growth when the fleet grows; steady state untouched
	mark, markIdx := s.mark, s.markIdx
	prevNbr, prevAB, prevBA := s.prevNbr, s.prevAB, s.prevBA
	curNbr, curDist := s.curNbr, s.curDist
	for i := 0; i < n; i++ {
		a := topo.NodeID(i)
		pe0, pe1 := s.prevStart[i], s.prevStart[i+1]
		ce0, ce1 := s.curStart[i], s.curStart[i+1]
		// Stamp the previous neighbor set for O(1) membership tests; tags
		// strictly increase, so stale stamps can never collide and the
		// arrays are never cleared.
		s.tag++
		tag := s.tag
		for pe := pe0; pe < pe1; pe++ {
			j := prevNbr[pe]
			mark[j] = tag
			markIdx[j] = pe
		}
		appear := s.appear[:0]
		for ce := ce0; ce < ce1; ce++ {
			j := curNbr[ce]
			if mark[j] == tag {
				// Survived: refresh the distance cost only, on the indexes
				// carried over from the previous refresh.
				pe := markIdx[j]
				d := curDist[ce]
				g.SetCost(int(prevAB[pe]), d)
				g.SetCost(int(prevBA[pe]), d)
				s.curAB[ce] = prevAB[pe]
				s.curBA[ce] = prevBA[pe]
				mark[j] = 0
			} else {
				appear = append(appear, ce)
			}
		}
		if len(appear) > 0 {
			// Appeared: bring the pairs up in ascending-j order, so links
			// created on first sight keep the oracle's (i<j) lexicographic
			// creation order.
			for x := 1; x < len(appear); x++ {
				v := appear[x]
				y := x - 1
				for y >= 0 && curNbr[appear[y]] > curNbr[v] {
					appear[y+1] = appear[y]
					y--
				}
				appear[y+1] = v
			}
			for _, ce := range appear {
				b := topo.NodeID(curNbr[ce])
				d := curDist[ce]
				s.curAB[ce] = ensureDirected(g, a, b, d)
				s.curBA[ce] = ensureDirected(g, b, a, d)
			}
			s.appear = appear
		}
		// Departed: every previous neighbor still stamped was not matched
		// above — the pair left radio range; drop both directions. When the
		// counts reconcile (all prev matched, nothing appeared) the pass is
		// skipped entirely, which is the common steady-state case.
		if int(pe1-pe0) != int(ce1-ce0)-len(appear) {
			for pe := pe0; pe < pe1; pe++ {
				j := prevNbr[pe]
				if mark[j] == tag {
					g.SetUp(int(prevAB[pe]), false)
					g.SetUp(int(prevBA[pe]), false)
					mark[j] = 0
				}
			}
		}
	}
	up := 2 * len(s.curNbr)
	s.commit()
	return up
}
