package pattern

import (
	"math/rand"
	"testing"
)

// TestTableMatchesMap drives the key table against a Go map at one, two and
// three words: Insert stores the given id once and finds it afterwards,
// Find misses absent keys, InsertAll hands out dense ids in first-seen
// order, and all of it survives regrowth from a tiny hint and reuse through
// Reset at a different width.
func TestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tab := NewTable(1, 1)
	for _, words := range []int{1, 2, 3, 1} {
		for round := 0; round < 3; round++ {
			tab.Reset(words, 1)
			ref := map[[3]uint64]int32{}
			key := make([]uint64, words)
			var k [3]uint64
			draw := func() {
				// Few distinct values per word, so first words collide often
				// and the later words decide equality.
				for w := range key {
					key[w] = uint64(rng.Intn(40)) << (rng.Intn(2) * 60)
					k[w] = key[w]
				}
			}
			for i := 0; i < 3000; i++ {
				draw()
				want, present := ref[k]
				if id, ok := tab.Find(key); ok != present || (ok && id != want) {
					t.Fatalf("words=%d Find(%x) = (%d, %v), want (%d, %v)", words, key, id, ok, want, present)
				}
				if !present {
					want = int32(7 * i) // any id: the table stores what it is given
				}
				id, inserted := tab.Insert(key, int32(7*i))
				if inserted == present || id != want {
					t.Fatalf("words=%d Insert(%x) = (%d, %v), want (%d, %v)", words, key, id, inserted, want, !present)
				}
				ref[k] = want
			}
			if tab.Len() != len(ref) {
				t.Fatalf("words=%d: Len %d, want %d", words, tab.Len(), len(ref))
			}

			// InsertAll over a fresh table: dense ids in first-seen order.
			tab.Reset(words, 1)
			batch := make([]uint64, 0, 500*words)
			for i := 0; i < 500; i++ {
				draw()
				batch = append(batch, key...)
			}
			ids := make([]int32, 500)
			tab.InsertAll(batch, ids)
			seen := map[[3]uint64]int32{}
			for i, id := range ids {
				copy(k[:], batch[i*words:(i+1)*words])
				want, ok := seen[k]
				if !ok {
					want = int32(len(seen))
					seen[k] = want
				}
				if id != want {
					t.Fatalf("words=%d InsertAll key %d: id %d, want %d", words, i, id, want)
				}
			}
		}
	}
}
