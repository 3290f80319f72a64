package interaction

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/index"
)

// refPartitioner is the set-based choosePartition that the
// position-indexed Partitioner replaced, kept verbatim as the
// differential reference: it evaluates Partition.Loss through doi for
// the baseline and every restart, and merges parts with Set.Union.
type refPartitioner struct {
	StateCnt    int
	MaxPartSize int
	RandCnt     int
	Rand        rngSource

	singles   []index.Set
	parts     []index.Set
	baseCross []float64
	cross     []float64
	baseRows  []uint64
	rows      []uint64
	alive     []bool
	edges     []mergeEdge
	out       []index.Set
}

func (pt *refPartitioner) Choose(d index.Set, current Partition, doi DoiFunc) Partition {
	maxPart := pt.MaxPartSize
	if maxPart <= 0 {
		maxPart = 20
	}
	feasible := func(p Partition) bool {
		if p.MaxPartSize() > maxPart {
			return false
		}
		return pt.StateCnt <= 0 || p.States() <= pt.StateCnt
	}

	var bestSoln Partition
	bestLoss := math.Inf(1)
	consider := func(p Partition) {
		if !feasible(p) {
			return
		}
		if l := p.Loss(doi); l < bestLoss {
			bestLoss = l
			bestSoln = p.Normalize()
		}
	}
	considerNormalized := func(p Partition) {
		if !feasible(p) {
			return
		}
		if l := p.Loss(doi); l < bestLoss {
			bestLoss = l
			bestSoln = append(Partition{}, p...)
		}
	}

	var baseline Partition
	covered := index.EmptySet
	for _, part := range current {
		kept := part.Intersect(d)
		if !kept.Empty() {
			baseline = append(baseline, kept)
			covered = covered.Union(kept)
		}
	}
	d.Minus(covered).Each(func(id index.ID) {
		baseline = append(baseline, index.NewSet(id))
	})
	consider(baseline)

	randCnt := pt.RandCnt
	if randCnt <= 0 {
		randCnt = 8
	}
	pt.singles = append(pt.singles[:0], Singletons(d)...)
	n := len(pt.singles)
	if cap(pt.baseCross) < n*n {
		pt.baseCross = make([]float64, n*n)
		pt.cross = make([]float64, n*n)
		pt.alive = make([]bool, n)
	}
	pt.baseCross = pt.baseCross[:n*n]
	useRows := n <= 64
	if useRows {
		if cap(pt.baseRows) < n {
			pt.baseRows = make([]uint64, n)
			pt.rows = make([]uint64, n)
		}
		pt.baseRows = pt.baseRows[:n]
		clear(pt.baseRows)
	}
	ids := d.IDs()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			l := doi(ids[i], ids[j])
			pt.baseCross[i*n+j] = l
			if useRows && l > 0 {
				pt.baseRows[i] |= 1 << j
				pt.baseRows[j] |= 1 << i
			}
		}
	}
	for iter := 0; iter < randCnt; iter++ {
		considerNormalized(pt.randomMerge(maxPart))
	}

	if bestSoln == nil {
		return Singletons(d)
	}
	return bestSoln
}

func (pt *refPartitioner) randomMerge(maxPart int) Partition {
	parts := append(pt.parts[:0], pt.singles...)
	pt.parts = parts
	states := len(parts) * 2
	n := len(parts)
	cross := append(pt.cross[:0], pt.baseCross...)
	pt.cross = cross
	get := func(i, j int) float64 {
		if i > j {
			i, j = j, i
		}
		return cross[i*n+j]
	}
	alive := pt.alive[:n]
	for i := range alive {
		alive[i] = true
	}
	useRows := n <= 64
	var aliveMask uint64
	var rows []uint64
	if useRows {
		rows = append(pt.rows[:0], pt.baseRows...)
		pt.rows = rows
		if n == 64 {
			aliveMask = ^uint64(0)
		} else {
			aliveMask = 1<<n - 1
		}
	}

	for {
		candidates := pt.edges[:0]
		onlySingles := false
		addEdge := func(i, j int, l float64) {
			si, sj := parts[i].Len(), parts[j].Len()
			if si+sj > maxPart {
				return
			}
			if pt.StateCnt > 0 {
				newStates := states - (1 << si) - (1 << sj) + (1 << (si + sj))
				if newStates > pt.StateCnt {
					return
				}
			}
			e := mergeEdge{i: i, j: j}
			if si == 1 && sj == 1 {
				e.weight = l
				if !onlySingles {
					onlySingles = true
					candidates = candidates[:0]
				}
				candidates = append(candidates, e)
			} else if !onlySingles {
				denom := float64(int(1)<<(si+sj) - int(1)<<si - int(1)<<sj)
				e.weight = l / denom
				candidates = append(candidates, e)
			}
		}
		for i := 0; i < n; i++ {
			if !alive[i] {
				continue
			}
			if useRows {
				for m := rows[i] & aliveMask & (^uint64(0) << (i + 1)); m != 0; m &= m - 1 {
					j := bits.TrailingZeros64(m)
					addEdge(i, j, get(i, j))
				}
			} else {
				for j := i + 1; j < n; j++ {
					if !alive[j] {
						continue
					}
					if l := get(i, j); l > 0 {
						addEdge(i, j, l)
					}
				}
			}
		}
		pt.edges = candidates
		if len(candidates) == 0 {
			break
		}
		pick := weightedPick(candidates, pt.Rand)
		i, j := candidates[pick].i, candidates[pick].j
		si, sj := parts[i].Len(), parts[j].Len()
		states += (1 << (si + sj)) - (1 << si) - (1 << sj)
		parts[i] = parts[i].Union(parts[j])
		alive[j] = false
		for k := 0; k < n; k++ {
			if k == i || !alive[k] {
				continue
			}
			merged := get(i, k) + get(j, k)
			if k < i {
				cross[k*n+i] = merged
			} else {
				cross[i*n+k] = merged
			}
		}
		if useRows {
			aliveMask &^= 1 << j
			rows[i] = (rows[i] | rows[j]) &^ (1<<i | 1<<j)
			for m := rows[j] & aliveMask &^ (1 << i); m != 0; m &= m - 1 {
				k := bits.TrailingZeros64(m)
				rows[k] = rows[k]&^(1<<j) | 1<<i
			}
		}
	}

	out := pt.out[:0]
	for i := 0; i < n; i++ {
		if alive[i] {
			out = append(out, parts[i])
		}
	}
	pt.out = out
	return Partition(out)
}

// chooseCase is one random choosePartition input: a candidate set, a
// symmetric doi table over it, and a current partition that covers part
// of d plus indices outside it.
type chooseCase struct {
	d       index.Set
	current Partition
	doi     map[Pair]float64
}

func randomChooseCase(rng *rand.Rand, n, maxPart int) chooseCase {
	// Candidate IDs are a sparse random subset of 1..3n+10, so positions
	// and IDs differ and the current partition can name outsiders.
	universe := rng.Perm(3*n + 10)
	ids := make([]index.ID, n)
	for i := range ids {
		ids[i] = index.ID(universe[i] + 1)
	}
	c := chooseCase{d: index.NewSet(ids...), doi: make(map[Pair]float64)}
	density := []float64{0.05, 0.3, 0.9}[rng.Intn(3)]
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				c.doi[MakePair(ids[i], ids[j])] = rng.Float64() * 100
			}
		}
	}
	// Current: about half of d plus a few outsiders, in random parts of
	// at most maxPart members, in shuffled part order.
	var pool []index.ID
	for _, id := range ids {
		if rng.Intn(2) == 0 {
			pool = append(pool, id)
		}
	}
	for _, u := range universe[n:min(len(universe), n+5)] {
		pool = append(pool, index.ID(u+1))
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	for len(pool) > 0 {
		k := 1 + rng.Intn(min(len(pool), maxPart))
		c.current = append(c.current, index.NewSet(pool[:k]...))
		pool = pool[k:]
	}
	return c
}

// TestChooseMatchesReference checks the position-indexed Choose against
// the set-based reference on random doi graphs: the same partition, the
// same position in the random stream afterwards, and exactly one doi
// call per unordered pair of d.
func TestChooseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := 0
	for _, n := range []int{0, 1, 2, 40, 63, 64, 65, 90} {
		for _, maxPart := range []int{2, 6, 0} {
			c := randomChooseCase(rng, n, max(maxPart, 4))
			// Unbounded, infeasible (< 2n), binding, and slack state bounds.
			for _, stateCnt := range []int{0, 3, 2*n + n/2 + 8, 1 << 20} {
				for _, randCnt := range []int{0, 1, 8} {
					seed := rng.Int63()
					name := fmt.Sprintf("n=%d/maxPart=%d/stateCnt=%d/randCnt=%d", n, maxPart, stateCnt, randCnt)
					calls := 0
					doi := func(a, b index.ID) float64 {
						calls++
						return c.doi[MakePair(a, b)]
					}
					ref := &refPartitioner{StateCnt: stateCnt, MaxPartSize: maxPart, RandCnt: randCnt, Rand: NewRand(seed)}
					want := ref.Choose(c.d, c.current, testDoi(c.doi))
					r := NewRand(seed)
					pt := &Partitioner{StateCnt: stateCnt, MaxPartSize: maxPart, RandCnt: randCnt, Rand: r}
					got := pt.Choose(c.d, c.current, doi)
					if !got.EqualNormalized(want) {
						t.Fatalf("%s: Choose = %v, reference %v", name, got, want)
					}
					if st, wst := r.State(), ref.Rand.(*Rand).State(); st != wst {
						t.Fatalf("%s: random stream at %d, reference at %d", name, st, wst)
					}
					if wantCalls := n * (n - 1) / 2; calls != wantCalls {
						t.Fatalf("%s: %d doi calls, want %d", name, calls, wantCalls)
					}
					// Scratch reuse: a second call on the same Partitioner
					// agrees with a second reference call.
					if again, wantAgain := pt.Choose(c.d, nil, doi), ref.Choose(c.d, nil, testDoi(c.doi)); !again.EqualNormalized(wantAgain) {
						t.Fatalf("%s: reused Choose = %v, reference %v", name, again, wantAgain)
					}
					cases++
				}
			}
		}
	}
	if cases != 8*3*4*3 {
		t.Fatalf("ran %d cases", cases)
	}

	// Restarts restore only the cross entries they changed, so every
	// call must leave the scratch clean for the next. One Partitioner
	// and one reference choose over a run of differently sized d in
	// turn, each call starting from the matrix and row bitsets the
	// previous size left; the last d is a near-complete doi graph at
	// |d| = 64, whose rows use bit 63. MaxPartSize 1 allows no merge
	// at all, not even of two singletons.
	full := randomChooseCase(rng, 64, 8)
	for i := 0; i < 64; i++ {
		for j := i + 1; j < 64; j++ {
			if a, b := full.d.At(i), full.d.At(j); rng.Float64() < 0.97 {
				full.doi[MakePair(a, b)] = rng.Float64() * 100
			}
		}
	}
	for _, maxPart := range []int{1, 6} {
		for _, stateCnt := range []int{0, 200} {
			seed := rng.Int63()
			r := NewRand(seed)
			pt := &Partitioner{StateCnt: stateCnt, MaxPartSize: maxPart, RandCnt: 8, Rand: r}
			ref := &refPartitioner{StateCnt: stateCnt, MaxPartSize: maxPart, RandCnt: 8, Rand: NewRand(seed)}
			run := []chooseCase{randomChooseCase(rng, 70, 6), randomChooseCase(rng, 40, 6), randomChooseCase(rng, 130, 6), randomChooseCase(rng, 5, 6), full, full}
			for k, c := range run {
				name := fmt.Sprintf("maxPart=%d/stateCnt=%d/call %d (|d|=%d)", maxPart, stateCnt, k, c.d.Len())
				got := pt.Choose(c.d, c.current, testDoi(c.doi))
				if want := ref.Choose(c.d, c.current, testDoi(c.doi)); !got.EqualNormalized(want) {
					t.Fatalf("%s: Choose = %v, reference %v", name, got, want)
				}
				if st, wst := r.State(), ref.Rand.(*Rand).State(); st != wst {
					t.Fatalf("%s: random stream at %d, reference at %d", name, st, wst)
				}
			}
		}
	}
}

// TestChooseAllocsNoHigherThanReference bounds the steady-state
// allocations of one Choose over 40 candidates by the reference's.
func TestChooseAllocsNoHigherThanReference(t *testing.T) {
	c := randomChooseCase(rand.New(rand.NewSource(5)), 40, 14)
	doi := testDoi(c.doi)
	pt := &Partitioner{StateCnt: 500, MaxPartSize: 14, RandCnt: 8, Rand: NewRand(7)}
	ref := &refPartitioner{StateCnt: 500, MaxPartSize: 14, RandCnt: 8, Rand: NewRand(7)}
	got := testing.AllocsPerRun(20, func() { pt.Choose(c.d, c.current, doi) })
	want := testing.AllocsPerRun(20, func() { ref.Choose(c.d, c.current, doi) })
	if got > want {
		t.Fatalf("Choose allocates %.0f per call, reference %.0f", got, want)
	}
	t.Logf("allocs per Choose at |d|=40: %.0f (reference %.0f)", got, want)
}

// TestMatrixLossBitEqualsLoss checks that the loss Choose reads from its
// doi matrix is bit-equal to Partition.Loss for random partitions of d in
// random part order, so ties between candidates resolve as Loss would,
// and that the early-stopping comparison agrees with Loss < bound.
func TestMatrixLossBitEqualsLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{2, 40, 90} {
		c := randomChooseCase(rng, n, 8)
		doi := testDoi(c.doi)
		pt := &Partitioner{RandCnt: 1, Rand: NewRand(1)}
		pt.Choose(c.d, nil, doi)
		for trial := 0; trial < 50; trial++ {
			perm := rng.Perm(n)
			var p Partition
			pt.members, pt.bounds = pt.members[:0], append(pt.bounds[:0], 0)
			for len(perm) > 0 {
				k := 1 + rng.Intn(min(len(perm), 8))
				part := index.NewSet()
				for _, pos := range perm[:k] {
					part = part.Add(pt.ids[pos])
				}
				for x := 0; x < part.Len(); x++ {
					pos, _ := slices.BinarySearch(pt.ids, part.At(x))
					pt.members = append(pt.members, pos)
				}
				pt.bounds = append(pt.bounds, len(pt.members))
				p = append(p, part)
				perm = perm[k:]
			}
			want := p.Loss(doi)
			if got, _ := pt.lossBelow(n, math.Inf(1)); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d: matrix loss %v, Loss %v", n, got, want)
			}
			for _, bound := range []float64{0, want / 2, want, math.Nextafter(want, math.Inf(1)), 2 * want} {
				if _, below := pt.lossBelow(n, bound); below != (want < bound) {
					t.Fatalf("n=%d: lossBelow(%v) = %v with Loss %v", n, bound, below, want)
				}
			}
		}
	}
}
