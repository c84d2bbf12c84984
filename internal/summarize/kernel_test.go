package summarize

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qagview/internal/lattice"
)

// listKernel is the greedy kernel as it ran before it moved onto coverage
// words: a candidate's coverage list walked one tuple at a time against the
// covered bitset, the last delta kept as a tuple list beside a bitset, and
// the one-round-stale repair of a candidate much larger than the delta
// testing each delta tuple against the candidate's pattern instead. It keeps
// only what the kernel computes — covered set, sum, count and the
// Delta-Judgment cache — and serves as FuzzGreedyKernel's reference.
type listKernel struct {
	ix    *lattice.Index
	delta bool

	covered bitset
	sum     float64
	cnt     int

	round     int
	lastDelta []int32 // tuples newly covered in the previous round, ascending
	ldBits    bitset  // bitset over lastDelta
	cache     map[int32]deltaEntry
}

// The reference kernels clear single bits and copy whole bitsets, which the
// word kernel never does.

func (b bitset) unset(i int32) { b[i>>6] &^= 1 << (uint(i) & 63) }

func (b bitset) clone() bitset { return append(bitset(nil), b...) }

// listScanFactor bounds when the stale repair scans the candidate's list
// against the last-delta bitset rather than testing each delta tuple
// against the candidate's pattern.
const listScanFactor = 32

func newListKernel(ix *lattice.Index, delta bool) *listKernel {
	return &listKernel{
		ix:      ix,
		delta:   delta,
		covered: newBitset(ix.Space.N()),
		ldBits:  newBitset(ix.Space.N()),
		cache:   map[int32]deltaEntry{},
	}
}

func (k *listKernel) marginal(c *lattice.Cluster) (dsum float64, dcnt int) {
	vals := k.ix.Space.Vals
	if e, ok := k.cache[c.ID]; k.delta && ok {
		switch {
		case int(e.asOf) == k.round:
			return e.dsum, int(e.dcnt)
		case int(e.asOf) == k.round-1:
			if len(c.Cov) <= listScanFactor*len(k.lastDelta) {
				for _, t := range c.Cov {
					if k.ldBits.has(t) {
						e.dsum -= vals[t]
						e.dcnt--
					}
				}
			} else {
				for _, t := range k.lastDelta {
					if c.Pat.CoversTuple(k.ix.Space.Tuples[t]) {
						e.dsum -= vals[t]
						e.dcnt--
					}
				}
			}
			e.asOf = int32(k.round)
			k.cache[c.ID] = e
			return e.dsum, int(e.dcnt)
		}
	}
	for _, t := range c.Cov {
		if !k.covered.has(t) {
			dsum += vals[t]
			dcnt++
		}
	}
	if k.delta {
		k.cache[c.ID] = deltaEntry{asOf: int32(k.round), dsum: dsum, dcnt: int32(dcnt)}
	}
	return dsum, dcnt
}

func (k *listKernel) add(c *lattice.Cluster) {
	for _, t := range k.lastDelta {
		k.ldBits.unset(t)
	}
	newly := k.lastDelta[:0]
	for _, t := range c.Cov {
		if !k.covered.has(t) {
			k.covered.set(t)
			k.sum += k.ix.Space.Vals[t]
			k.cnt++
			k.ldBits.set(t)
			newly = append(newly, t)
		}
	}
	k.round++
	k.lastDelta = newly
}

func (k *listKernel) resetFrom(base *listKernel) {
	copy(k.covered, base.covered)
	k.sum, k.cnt = base.sum, base.cnt
	k.round = 0
	for _, t := range k.lastDelta {
		k.ldBits.unset(t)
	}
	k.lastDelta = k.lastDelta[:0]
	clear(k.cache)
}

func (k *listKernel) adoptIndex(ix *lattice.Index) {
	*k = *newListKernel(ix, k.delta)
}

// kernelSpace draws n rows over m attributes of card values each. With ties
// > 0 the values come from ties levels, so equal values meet; otherwise
// they are continuous, so sums in different orders differ in their bits.
func kernelSpace(t *testing.T, rng *rand.Rand, n, m, card, ties int) *lattice.Space {
	t.Helper()
	rows := make([][]string, n)
	vals := make([]float64, n)
	for i := range rows {
		rows[i] = make([]string, m)
		for j := range rows[i] {
			rows[i][j] = fmt.Sprintf("v%d", rng.Intn(card))
		}
		if ties > 0 {
			vals[i] = float64(rng.Intn(ties)) * 0.1
		} else {
			vals[i] = rng.Float64() * 5
		}
	}
	attrs := make([]string, m)
	for j := range attrs {
		attrs[j] = fmt.Sprintf("a%d", j)
	}
	s, err := lattice.NewSpace(attrs, rows, vals)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// kernelPair runs one workset and its reference side by side.
type kernelPair struct {
	ws  *workset
	ref *listKernel
}

func (p kernelPair) check(t *testing.T, step int, op string) {
	t.Helper()
	if p.ws.cnt != p.ref.cnt || math.Float64bits(p.ws.sum) != math.Float64bits(p.ref.sum) {
		t.Fatalf("step %d (%s): sum %v (%x) cnt %d, reference %v (%x) cnt %d", step, op,
			p.ws.sum, math.Float64bits(p.ws.sum), p.ws.cnt, p.ref.sum, math.Float64bits(p.ref.sum), p.ref.cnt)
	}
	for w := range p.ref.covered {
		if p.ws.covered[w] != p.ref.covered[w] {
			t.Fatalf("step %d (%s): covered word %d = %x, reference %x", step, op, w, p.ws.covered[w], p.ref.covered[w])
		}
		// The last delta is what the next round's repairs subtract: a stale
		// word anywhere would be subtracted again once a span reaches it.
		if p.ws.ldBits[w] != p.ref.ldBits[w] {
			t.Fatalf("step %d (%s): last-delta word %d = %x, reference %x", step, op, w, p.ws.ldBits[w], p.ref.ldBits[w])
		}
	}
}

// FuzzGreedyKernel pins the word-parallel greedy kernel (workset.marginal
// and workset.add over coverage bitmaps) to the list-based kernel it
// replaced. Each input draws a space — N below 64, a multiple of 64, or
// spanning several words, with continuous or tied values — and runs a random
// sequence of add, evalAdd (with and without Delta-Judgment), resetFrom and
// adoptIndex over an on-demand index and over the naive one. After every
// step the marginals must match to the bit, and so must the covered and
// last-delta words, the sum and the count.
func FuzzGreedyKernel(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(40), uint8(3), uint8(3), uint8(0), uint8(80))
	f.Add(int64(2), uint8(1), uint16(1), uint8(4), uint8(3), uint8(0), uint8(120))
	f.Add(int64(3), uint8(2), uint16(200), uint8(5), uint8(2), uint8(3), uint8(200))
	f.Add(int64(4), uint8(2), uint16(90), uint8(2), uint8(4), uint8(0), uint8(255))
	f.Add(int64(5), uint8(1), uint16(3), uint8(3), uint8(2), uint8(2), uint8(150))
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, n uint16, m, card, ties, steps uint8) {
		size := func(rng *rand.Rand) int {
			switch shape % 3 {
			case 0:
				return 1 + int(n)%63
			case 1:
				return 64 * (1 + int(n)%4)
			default:
				return 65 + rng.Intn(1+int(n)%400)
			}
		}
		mm, cc, tt := 1+int(m)%5, 1+int(card)%4, int(ties)%4
		for _, build := range []func(*lattice.Space, int) (*lattice.Index, error){lattice.BuildIndex, lattice.BuildIndexNaive} {
			rng := rand.New(rand.NewSource(seed))
			newIndex := func() *lattice.Index {
				s := kernelSpace(t, rng, size(rng), mm, cc, tt)
				ix, err := build(s, 1+rng.Intn(s.N()))
				if err != nil {
					t.Fatal(err)
				}
				return ix
			}
			ix := newIndex()
			// A small candidate pool makes cached marginals meet again, so
			// the one-round-stale repair runs.
			var pool []*lattice.Cluster
			drawPool := func() {
				pool = append(pool[:0], ix.AllStar())
				for range 8 {
					pool = append(pool, ix.Cluster(int32(rng.Intn(ix.NumClusters()))))
				}
			}
			drawPool()
			pairs := []kernelPair{
				{newWorkset(ix, true), newListKernel(ix, true)},
				{newWorkset(ix, true), newListKernel(ix, true)},
				{newWorkset(ix, false), newListKernel(ix, false)},
			}
			for step := 0; step < int(steps); step++ {
				p := pairs[rng.Intn(len(pairs))]
				c := pool[rng.Intn(len(pool))]
				op := ""
				switch r := rng.Intn(16); {
				case r < 5:
					op = "add"
					p.ws.add(c)
					p.ref.add(c)
				case r < 14:
					op = "evalAdd"
					dsum, dcnt := p.ws.marginal(c)
					rsum, rcnt := p.ref.marginal(c)
					if dcnt != rcnt || math.Float64bits(dsum) != math.Float64bits(rsum) {
						t.Fatalf("step %d: marginal of cluster %d (delta %v) = (%v %x, %d), reference (%v %x, %d)", step, c.ID, p.ws.delta,
							dsum, math.Float64bits(dsum), dcnt, rsum, math.Float64bits(rsum), rcnt)
					}
					want := 0.0
					if p.ref.cnt+rcnt > 0 {
						want = (p.ref.sum + rsum) / float64(p.ref.cnt+rcnt)
					}
					if got := p.ws.evalAdd(c); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("step %d: evalAdd of cluster %d = %v, reference %v", step, c.ID, got, want)
					}
				case r < 15:
					op = "resetFrom"
					base := pairs[rng.Intn(len(pairs))]
					p.ws.resetFrom(base.ws)
					p.ref.resetFrom(base.ref)
				default:
					op = "adoptIndex"
					ix = newIndex()
					drawPool()
					for _, q := range pairs {
						q.ws.adoptIndex(ix, false)
						q.ref.adoptIndex(ix)
					}
				}
				p.check(t, step, op)
			}
		}
	})
}
