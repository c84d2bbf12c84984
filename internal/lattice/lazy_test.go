package lattice

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"qagview/internal/pattern"
)

// allClusters hands out every cluster of ix in id order, filling them all.
func allClusters(ix *Index) []*Cluster {
	out := make([]*Cluster, ix.NumClusters())
	for id := range out {
		out[id] = ix.Cluster(int32(id))
	}
	return out
}

// assertSameCluster compares a handed-out cluster with the oracle's record
// of the same id: pattern, coverage list and bitmap, and the exact bits of
// the sum.
func assertSameCluster(t testing.TB, label string, got, want *Cluster) {
	t.Helper()
	if got.ID != want.ID || !pattern.Equal(got.Pat, want.Pat) {
		t.Fatalf("%s: cluster (%d, %v), oracle (%d, %v)", label, got.ID, got.Pat, want.ID, want.Pat)
	}
	if len(got.Cov) != len(want.Cov) {
		t.Fatalf("%s: cluster %d covers %d tuples, oracle %d", label, got.ID, len(got.Cov), len(want.Cov))
	}
	for i := range got.Cov {
		if got.Cov[i] != want.Cov[i] {
			t.Fatalf("%s: cluster %d cov[%d] = %d, oracle %d", label, got.ID, i, got.Cov[i], want.Cov[i])
		}
	}
	if got.BitsOff != want.BitsOff || len(got.Bits) != len(want.Bits) {
		t.Fatalf("%s: cluster %d bitmap spans %d words at %d, oracle %d at %d", label, got.ID, len(got.Bits), got.BitsOff, len(want.Bits), want.BitsOff)
	}
	for i := range got.Bits {
		if got.Bits[i] != want.Bits[i] {
			t.Fatalf("%s: cluster %d bits[%d] = %x, oracle %x", label, got.ID, i, got.Bits[i], want.Bits[i])
		}
	}
	if math.Float64bits(got.Sum) != math.Float64bits(want.Sum) {
		t.Fatalf("%s: cluster %d sum %v (%x), oracle %v (%x)", label, got.ID,
			got.Sum, math.Float64bits(got.Sum), want.Sum, math.Float64bits(want.Sum))
	}
}

// tiedSpace draws n rows over m attributes of card values each, with values
// from a pool of ties distinct levels (ties = 0 draws continuous values).
func tiedSpace(t testing.TB, rng *rand.Rand, n, m, card, ties int) *Space {
	t.Helper()
	rows := make([][]string, n)
	vals := make([]float64, n)
	for i := range rows {
		row := make([]string, m)
		for j := range row {
			row[j] = fmt.Sprintf("v%d_%d", j, rng.Intn(card))
		}
		rows[i] = row
		if ties > 0 {
			vals[i] = float64(rng.Intn(ties)) * 0.1
		} else {
			vals[i] = rng.Float64() * 5
		}
	}
	s, err := NewSpace(attrNames(m), rows, vals)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFreshIndexFillsOnHandOut pins the on-demand contract: a fresh index
// has filled nothing, the key-only operations fill nothing, and each
// hand-out fills exactly the cluster it returns, once.
func TestFreshIndexFillsOnHandOut(t *testing.T) {
	s := randomSpace(t, 61, 200, 5, 3)
	ix, err := BuildIndex(s, 30)
	if err != nil {
		t.Fatal(err)
	}
	if ix.FilledClusters() != 0 || ix.CoverageArenaLen() != 0 {
		t.Fatalf("fresh index filled %d clusters (%d entries)", ix.FilledClusters(), ix.CoverageArenaLen())
	}
	for a := int32(0); a < int32(ix.NumClusters()); a += 7 {
		ix.Distance(a, 0)
		ix.Covers(0, a)
	}
	memo := ix.NewLCAMemo()
	if _, err := memo.LCAID(ix.singleton[0], ix.singleton[1]); err != nil {
		t.Fatal(err)
	}
	if ix.FilledClusters() != 0 {
		t.Fatalf("key-only operations filled %d clusters", ix.FilledClusters())
	}
	before := ix.Bytes()
	c := ix.Singleton(3)
	if ix.FilledClusters() != 1 || ix.CoverageArenaLen() != c.Size() {
		t.Fatalf("one hand-out: %d filled, %d entries, cluster covers %d", ix.FilledClusters(), ix.CoverageArenaLen(), c.Size())
	}
	if ix.Cluster(c.ID) != c || ix.FilledClusters() != 1 {
		t.Fatal("a second hand-out refilled the cluster")
	}
	if ix.Bytes() <= before {
		t.Fatalf("Bytes did not charge the fill: %d then %d", before, ix.Bytes())
	}
	all := ix.AllStar()
	if all.Size() != s.N() || ix.FilledClusters() != 2 {
		t.Fatalf("all-star covers %d of %d; %d filled", all.Size(), s.N(), ix.FilledClusters())
	}
}

// TestConcurrentFillBitIdentical: 8 goroutines hand out overlapping id sets
// from one fresh index, through every entry point; every cluster must
// equal the naive oracle's, and each id must be filled exactly once.
func TestConcurrentFillBitIdentical(t *testing.T) {
	s := randomSpace(t, 62, 400, 6, 3)
	const L = 60
	oracle, err := BuildIndexNaive(s, L)
	if err != nil {
		t.Fatal(err)
	}
	want := allClusters(oracle)
	ix, err := BuildIndex(s, L)
	if err != nil {
		t.Fatal(err)
	}
	nc := ix.NumClusters()
	got := make([][]*Cluster, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			got[g] = make([]*Cluster, nc)
			// Each goroutine walks half the ids, in its own order, so every
			// id is contended by about four of them.
			for _, id := range rng.Perm(nc)[:nc/2] {
				var c *Cluster
				switch id % 3 {
				case 0:
					c = ix.Cluster(int32(id))
				case 1:
					var ok bool
					if c, ok = ix.Lookup(want[id].Pat); !ok {
						t.Errorf("goroutine %d: pattern of cluster %d not found", g, id)
						return
					}
				default:
					var err error
					if c, err = ix.LCACluster(want[id], want[id]); err != nil {
						t.Error(err)
						return
					}
				}
				got[g][id] = c
			}
			for rank := 0; rank < L; rank += g + 1 {
				c := ix.Singleton(rank)
				if got[g][c.ID] != nil && got[g][c.ID] != c {
					t.Errorf("goroutine %d: cluster %d handed out as two records", g, c.ID)
				}
			}
		}(g)
	}
	wg.Wait()
	seen := make([]*Cluster, nc)
	for g := range got {
		for id, c := range got[g] {
			if c == nil {
				continue
			}
			assertSameCluster(t, fmt.Sprintf("goroutine %d", g), c, want[id])
			if seen[id] != nil && seen[id] != c {
				t.Fatalf("cluster %d filled twice", id)
			}
			seen[id] = c
		}
	}
	allClusters(ix)
	if ix.FilledClusters() != nc || ix.CoverageArenaLen() != oracle.CoverageArenaLen() {
		t.Fatalf("%d of %d filled, %d of %d entries", ix.FilledClusters(), nc, ix.CoverageArenaLen(), oracle.CoverageArenaLen())
	}
}

// FuzzLazyCoverage draws random small spaces — attribute count,
// cardinality, N, L, and tied values — and hands clusters out of a fresh
// on-demand index in a random order through every entry point: each must
// equal the naive index's cluster bit for bit.
func FuzzLazyCoverage(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(3), uint16(40), uint16(10), uint8(0))
	f.Add(int64(2), uint8(1), uint8(1), uint16(1), uint16(1), uint8(1))
	f.Add(int64(3), uint8(6), uint8(2), uint16(130), uint16(64), uint8(3))
	f.Add(int64(4), uint8(4), uint8(5), uint16(65), uint16(65), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, m, card uint8, n, l uint16, ties uint8) {
		mm := 1 + int(m)%6
		cc := 1 + int(card)%5
		nn := 1 + int(n)%300
		ll := 1 + int(l)%nn
		rng := rand.New(rand.NewSource(seed))
		s := tiedSpace(t, rng, nn, mm, cc, int(ties)%4)
		oracle, err := BuildIndexNaive(s, ll)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := BuildIndex(s, ll)
		if err != nil {
			t.Fatal(err)
		}
		if ix.NumClusters() != oracle.NumClusters() {
			t.Fatalf("%d clusters, oracle %d", ix.NumClusters(), oracle.NumClusters())
		}
		nc := ix.NumClusters()
		for _, id := range rng.Perm(nc) {
			var c *Cluster
			switch rng.Intn(4) {
			case 0:
				c = ix.Cluster(int32(id))
			case 1:
				c, _ = ix.Lookup(oracle.Cluster(int32(id)).Pat)
			case 2:
				c = ix.Singleton(rng.Intn(ll))
			default:
				a, b := oracle.Cluster(int32(id)), oracle.Cluster(int32(rng.Intn(nc)))
				if c, err = ix.LCACluster(a, b); err != nil {
					t.Fatal(err)
				}
			}
			assertSameCluster(t, "fuzz", c, oracle.Cluster(c.ID))
		}
		assertSameCluster(t, "all-star", ix.AllStar(), oracle.AllStar())
	})
}
