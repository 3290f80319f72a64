package interaction

import (
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/index"
)

// Partition is a disjoint decomposition of a candidate index set into
// parts. Indices within a part may interact; indices across parts are
// treated as independent (equation 2.1 of the paper).
type Partition []index.Set

// Normalize returns the partition with empty parts dropped and parts
// ordered by their smallest member, for deterministic comparison.
func (p Partition) Normalize() Partition {
	var out Partition
	for _, part := range p {
		if !part.Empty() {
			out = append(out, part)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].First() < out[j].First()
	})
	return out
}

// Equal reports whether two partitions contain the same parts.
func (p Partition) Equal(q Partition) bool {
	return p.Normalize().EqualNormalized(q.Normalize())
}

// EqualNormalized reports whether two already-normalized partitions
// contain the same parts. Both receivers must be Normalize outputs
// (non-empty parts ordered by smallest member); under that precondition
// it performs no sorting and no copies. WFIT asks this question once per
// statement against its stored (always-normalized) partition, where
// Equal's double re-normalization was pure overhead.
func (p Partition) EqualNormalized(q Partition) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if !p[i].Equal(q[i]) {
			return false
		}
	}
	return true
}

// Union returns all indices covered by the partition.
func (p Partition) Union() index.Set {
	u := index.EmptySet
	for _, part := range p {
		u = u.Union(part)
	}
	return u
}

// States returns Σ 2^|Pk|, the configuration count WFIT must track.
func (p Partition) States() int {
	total := 0
	for _, part := range p {
		total += 1 << part.Len()
	}
	return total
}

// MaxPartSize returns the size of the largest part (cmax in Theorem 4.3).
func (p Partition) MaxPartSize() int {
	m := 0
	for _, part := range p {
		if part.Len() > m {
			m = part.Len()
		}
	}
	return m
}

// PartOf returns the part containing id, or the empty set.
func (p Partition) PartOf(id index.ID) index.Set {
	for _, part := range p {
		if part.Contains(id) {
			return part
		}
	}
	return index.EmptySet
}

// Validate checks that parts are disjoint and non-empty.
func (p Partition) Validate() bool {
	seen := make(map[index.ID]bool)
	for _, part := range p {
		if part.Empty() {
			return false
		}
		ok := true
		part.Each(func(id index.ID) {
			if seen[id] {
				ok = false
			}
			seen[id] = true
		})
		if !ok {
			return false
		}
	}
	return true
}

// DoiFunc reports the (current) degree of interaction of an index pair:
// non-negative, and symmetric in its arguments.
type DoiFunc func(a, b index.ID) float64

// Loss returns the total doi mass across part boundaries — the error the
// partition introduces in the decomposed cost formula (2.1).
// Partitioner.Choose sums the same terms in the same order from its doi
// matrix.
func (p Partition) Loss(doi DoiFunc) float64 {
	total := 0.0
	for i := 0; i < len(p); i++ {
		pi := p[i]
		for j := i + 1; j < len(p); j++ {
			pj := p[j]
			for x := 0; x < pi.Len(); x++ {
				a := pi.At(x)
				for y := 0; y < pj.Len(); y++ {
					total += doi(a, pj.At(y))
				}
			}
		}
	}
	return total
}

// ConnectedComponents computes the minimum stable partition: the connected
// components of the interaction relation over the given indices.
func ConnectedComponents(ids index.Set, interacts func(a, b index.ID) bool) Partition {
	members := ids.IDs()
	parent := make(map[index.ID]index.ID, len(members))
	for _, id := range members {
		parent[id] = id
	}
	var find func(index.ID) index.ID
	find = func(x index.ID) index.ID {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b index.ID) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			if interacts(members[i], members[j]) {
				union(members[i], members[j])
			}
		}
	}
	groups := make(map[index.ID][]index.ID)
	for _, id := range members {
		r := find(id)
		groups[r] = append(groups[r], id)
	}
	var out Partition
	for _, g := range groups {
		out = append(out, index.NewSet(g...))
	}
	return out.Normalize()
}

// Singletons returns the full-independence partition of ids, already in
// Normalize form (ids iterate in ascending order).
func Singletons(ids index.Set) Partition {
	var out Partition
	ids.Each(func(id index.ID) {
		out = append(out, index.NewSet(id))
	})
	return out
}

// rngSource is the minimal random interface the partitioner needs,
// satisfied by *rand.Rand.
type rngSource interface {
	Float64() float64
}

// Partitioner implements choosePartition (Figure 7): a randomized search
// for a feasible partition (Σ 2^|Pk| ≤ StateCnt, parts ≤ MaxPartSize)
// minimizing the cross-part interaction loss.
//
// The search works on positions: the members of d, in ascending order,
// are numbered 0..|d|−1. Every candidate partition — the baseline and
// each randomized restart — is held as parts of ascending positions, its
// feasibility comes from the part sizes, and its loss is read from one
// |d|×|d| doi matrix filled once per call. Index sets are built only for
// a partition that becomes the best so far. A Partitioner is not safe for
// concurrent use: besides the random source, it keeps the matrix and the
// merge state as scratch that Choose reuses across calls.
type Partitioner struct {
	// StateCnt bounds Σ 2^|Pk|; non-positive means unbounded.
	StateCnt int
	// MaxPartSize caps single parts so the WFA bitmask stays machine-
	// sized; defaults to 20 when zero.
	MaxPartSize int
	// RandCnt is the number of randomized restarts (RAND_CNT).
	RandCnt int
	// Rand supplies randomness; required.
	Rand rngSource

	// scratch reused across Choose calls
	ids      []index.ID // d in ascending order: position p is ids[p]
	words    int        // uint64 words per row bitset: ⌈|d|/64⌉
	doi      []float64  // symmetric n×n doi matrix over positions
	cross    []float64  // restart's cross-loss matrix by slot; doi between restarts
	undo     []int      // cross entries the running restart changed
	baseRows []uint64   // per-position positive-doi partner bitsets, then positions with any
	rows     []uint64   // restart's copy of baseRows, by slot
	size     []int      // restart's part size per slot, 0 once merged away
	owner    []int      // slot a part was merged into, then each position's slot
	cursor   []int
	covered  []bool
	members  []int // the candidate partition's positions, part by part
	bounds   []int // part k is members[bounds[k]:bounds[k+1]]
	setIDs   []index.ID
	pairs    []mergeEdge // positive-doi position pairs, ascending, weighted by doi
	edges    []mergeEdge
}

// Choose computes a feasible partition of d, seeded by the current
// partition, minimizing loss under doi. It calls doi exactly once per
// unordered pair of d. The result is always in Normalize form, so callers
// may compare it with EqualNormalized.
func (pt *Partitioner) Choose(d index.Set, current Partition, doi DoiFunc) Partition {
	maxPart := pt.MaxPartSize
	if maxPart <= 0 {
		maxPart = 20
	}
	n := d.Len()
	pt.reserve(n)
	ids := pt.ids
	for p := range ids {
		ids[p] = d.At(p)
	}
	w := pt.words
	clear(pt.baseRows)
	busy := pt.baseRows[n*w:]
	pt.pairs = pt.pairs[:0]
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			l := doi(ids[i], ids[j])
			pt.doi[i*n+j], pt.doi[j*n+i] = l, l
			pt.cross[i*n+j], pt.cross[j*n+i] = l, l
			if l > 0 {
				pt.pairs = append(pt.pairs, mergeEdge{i: i, j: j, weight: l})
				pt.baseRows[i*w+j>>6] |= 1 << (j & 63)
				pt.baseRows[j*w+i>>6] |= 1 << (i & 63)
				busy[i>>6] |= 1 << (i & 63)
				busy[j>>6] |= 1 << (j & 63)
			}
		}
	}

	var bestSoln Partition
	bestLoss := math.Inf(1)
	// consider scores the partition held in members/bounds; normalized
	// says its parts are already ordered by smallest member.
	consider := func(normalized bool) {
		if !pt.feasible(maxPart) {
			return
		}
		if l, below := pt.lossBelow(n, bestLoss); below {
			bestLoss = l
			bestSoln = pt.partition()
			if !normalized {
				bestSoln = bestSoln.Normalize()
			}
		}
	}

	// Baseline: the current partition restricted to d, plus singletons
	// for new indices.
	covered := pt.covered
	clear(covered)
	pt.members, pt.bounds = pt.members[:0], append(pt.bounds[:0], 0)
	for _, part := range current {
		for x := 0; x < part.Len(); x++ {
			if p, ok := slices.BinarySearch(ids, part.At(x)); ok {
				pt.members = append(pt.members, p)
				covered[p] = true
			}
		}
		if len(pt.members) > pt.bounds[len(pt.bounds)-1] {
			pt.bounds = append(pt.bounds, len(pt.members))
		}
	}
	for p := 0; p < n; p++ {
		if !covered[p] {
			pt.members = append(pt.members, p)
			pt.bounds = append(pt.bounds, len(pt.members))
		}
	}
	consider(false)

	// Randomized merge restarts, all growing from the singleton start
	// state. Merges keep the lowest-positioned part in place, so restart
	// output is in Normalize form by construction.
	randCnt := pt.RandCnt
	if randCnt <= 0 {
		randCnt = 8
	}
	for iter := 0; iter < randCnt; iter++ {
		pt.randomMerge(n, maxPart)
		consider(true)
	}

	if bestSoln == nil {
		// Nothing feasible (e.g. StateCnt < 2|d|): fall back to
		// singletons regardless, which is the least stateful option.
		return Singletons(d)
	}
	return bestSoln
}

// reserve sizes the scratch for n candidates.
func (pt *Partitioner) reserve(n int) {
	pt.words = (n + 63) / 64
	if cap(pt.ids) < n {
		pt.ids = make([]index.ID, n)
		pt.doi = make([]float64, n*n)
		pt.cross = make([]float64, n*n)
		pt.baseRows = make([]uint64, (n+1)*pt.words)
		pt.size = make([]int, n)
		pt.owner = make([]int, n)
		pt.cursor = make([]int, n)
		pt.covered = make([]bool, n)
		pt.members = make([]int, 0, n)
		pt.bounds = make([]int, 0, n+1)
	}
	pt.ids = pt.ids[:n]
	pt.doi = pt.doi[:n*n]
	pt.cross = pt.cross[:n*n]
	pt.baseRows = pt.baseRows[:(n+1)*pt.words]
	pt.size = pt.size[:n]
	pt.owner = pt.owner[:n]
	pt.cursor = pt.cursor[:n]
	pt.covered = pt.covered[:n]
}

// feasible reports whether the partition in members/bounds respects the
// part-size and state bounds.
func (pt *Partitioner) feasible(maxPart int) bool {
	states := 0
	for k := 1; k < len(pt.bounds); k++ {
		size := pt.bounds[k] - pt.bounds[k-1]
		if size > maxPart {
			return false
		}
		states += 1 << size
	}
	return pt.StateCnt <= 0 || states <= pt.StateCnt
}

// lossBelow returns Partition.Loss of the partition in members/bounds,
// read from the doi matrix in Loss's exact order — parts in slice order
// with i<j, members ascending — so the sum is bit-equal to Loss under the
// same doi; and whether it is below bound. doi is non-negative, so a
// partial sum never decreases: the scan stops, reporting false, once it
// reaches bound.
func (pt *Partitioner) lossBelow(n int, bound float64) (float64, bool) {
	total := 0.0
	parts := len(pt.bounds) - 1
	for i := 0; i < parts; i++ {
		pi := pt.members[pt.bounds[i]:pt.bounds[i+1]]
		for j := i + 1; j < parts; j++ {
			pj := pt.members[pt.bounds[j]:pt.bounds[j+1]]
			for _, a := range pi {
				row := pt.doi[a*n : a*n+n]
				for _, b := range pj {
					total += row[b]
				}
			}
			if total >= bound {
				return total, false
			}
		}
	}
	return total, total < bound
}

// partition builds the index sets of the partition in members/bounds.
func (pt *Partitioner) partition() Partition {
	out := make(Partition, 0, len(pt.bounds)-1)
	for k := 1; k < len(pt.bounds); k++ {
		ids := pt.setIDs[:0]
		for _, p := range pt.members[pt.bounds[k-1]:pt.bounds[k]] {
			ids = append(ids, pt.ids[p])
		}
		pt.setIDs = ids
		out = append(out, index.NewSet(ids...))
	}
	return out
}

// randomMerge runs one randomized merging pass from the singleton start
// state over n positions and leaves its result in members/bounds: parts
// ordered by smallest position, members ascending.
//
// Merging two singletons leaves the state count at 2n, so it is feasible
// in every round or in none. While such merges exist they are the only
// candidates, weighted by their doi, and no merge creates one: the first
// phase picks from the positive-doi pairs and drops those a merge touched.
// The second phase rebuilds its candidates every round. Each slot's row
// bitset names its positive-loss partners, so a round visits only slots
// with a partner and, for each, only the partners above it, in the order
// a full scan would meet them. Losses are sums of non-negative doi, so
// positivity is monotone under merging and the rows just OR. A merge
// changes the cross loss with i only for j's partners: for any other
// slot k, cross[j][k] is 0 and the sum would keep cross[i][k] as it is.
func (pt *Partitioner) randomMerge(n, maxPart int) {
	size, owner, cross, w := pt.size, pt.owner, pt.cross, pt.words
	for i := range size {
		size[i] = 1
	}
	states := n * 2
	rows := append(pt.rows[:0], pt.baseRows...)
	pt.rows = rows
	busy := rows[n*w:]
	merge := func(i, j int) { // j into i, i < j
		si, sj := size[i], size[j]
		states += (1 << (si + sj)) - (1 << si) - (1 << sj)
		size[i], size[j] = si+sj, 0
		owner[j] = i
		busy[j>>6] &^= 1 << (j & 63)
		ri, rj := rows[i*w:i*w+w], rows[j*w:j*w+w]
		for x, m := range rj {
			ri[x] |= m
			for ; m != 0; m &= m - 1 {
				k := x<<6 | bits.TrailingZeros64(m)
				if k == i {
					continue
				}
				rows[k*w+j>>6] &^= 1 << (j & 63)
				rows[k*w+i>>6] |= 1 << (i & 63)
				merged := cross[i*n+k] + cross[j*n+k]
				cross[i*n+k], cross[k*n+i] = merged, merged
				pt.undo = append(pt.undo, i*n+k, k*n+i)
			}
		}
		ri[i>>6] &^= 1 << (i & 63)
		ri[j>>6] &^= 1 << (j & 63)
	}

	candidates := pt.edges[:0]
	if maxPart >= 2 && (pt.StateCnt <= 0 || states <= pt.StateCnt) {
		candidates = append(candidates, pt.pairs...)
	}
	for len(candidates) > 0 {
		e := candidates[weightedPick(candidates, pt.Rand)]
		merge(e.i, e.j)
		candidates = slices.DeleteFunc(candidates, func(c mergeEdge) bool {
			return c.i == e.i || c.i == e.j || c.j == e.i || c.j == e.j
		})
	}
	for {
		candidates = candidates[:0]
		for bx, bm := range busy {
			for ; bm != 0; bm &= bm - 1 {
				i := bx<<6 | bits.TrailingZeros64(bm)
				row, ci := rows[i*w:i*w+w], cross[i*n:i*n+n]
				for x := i >> 6; x < w; x++ {
					m := row[x]
					if x == i>>6 {
						m &= ^uint64(0) << (i&63 + 1)
					}
					for ; m != 0; m &= m - 1 {
						j := x<<6 | bits.TrailingZeros64(m)
						si, sj := size[i], size[j]
						if si+sj > maxPart || pt.StateCnt > 0 && states-(1<<si)-(1<<sj)+(1<<(si+sj)) > pt.StateCnt {
							continue
						}
						denom := float64(int(1)<<(si+sj) - int(1)<<si - int(1)<<sj)
						candidates = append(candidates, mergeEdge{i: i, j: j, weight: ci[j] / denom})
					}
				}
			}
		}
		if len(candidates) == 0 {
			break
		}
		e := candidates[weightedPick(candidates, pt.Rand)]
		merge(e.i, e.j)
	}
	pt.edges = candidates
	for _, x := range pt.undo {
		cross[x] = pt.doi[x]
	}
	pt.undo = pt.undo[:0]

	// Resolve each position's slot: a merged-away slot points at a lower
	// one, already resolved in this ascending pass. Parts are laid out
	// slots ascending, then filled with their members.
	pt.bounds = pt.bounds[:0]
	next := 0
	for p := 0; p < n; p++ {
		if size[p] > 0 {
			owner[p] = p
			pt.bounds = append(pt.bounds, next)
			pt.cursor[p] = next
			next += size[p]
		} else {
			owner[p] = owner[owner[p]]
		}
	}
	pt.bounds = append(pt.bounds, next)
	pt.members = pt.members[:n]
	for p := 0; p < n; p++ {
		s := owner[p]
		pt.members[pt.cursor[s]] = p
		pt.cursor[s]++
	}
}

// mergeEdge is a candidate merge of two parts during randomized search.
type mergeEdge struct {
	i, j   int
	weight float64
}

// weightedPick selects an element index with probability proportional to
// its weight.
func weightedPick(edges []mergeEdge, rng rngSource) int {
	total := 0.0
	for _, e := range edges {
		total += e.weight
	}
	if total <= 0 {
		return 0
	}
	r := rng.Float64() * total
	acc := 0.0
	for k, e := range edges {
		acc += e.weight
		if r < acc {
			return k
		}
	}
	return len(edges) - 1
}
