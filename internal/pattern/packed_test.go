package pattern

import (
	"math/rand"
	"testing"
)

// genCodec draws random per-attribute cardinalities, mixing tiny, mid-sized
// and large domains so that keys span one to several words, and builds a
// codec over them.
func genCodec(rng *rand.Rand, m int) (*Codec, []int) {
	cards := make([]int, m)
	for j := range cards {
		switch rng.Intn(4) {
		case 0:
			cards[j] = 1 + rng.Intn(3) // 1-2 bit fields
		case 1:
			cards[j] = 4 + rng.Intn(12) // 3-4 bit fields
		case 2:
			cards[j] = 16 + rng.Intn(48) // 5-6 bit fields
		default:
			cards[j] = 1<<(10+rng.Intn(20)) + rng.Intn(1000) // 11-30 bit fields
		}
	}
	return NewCodec(cards), cards
}

// widthCards returns cardinalities whose fields are exactly the given bit
// widths (a card of 2^w - 1 needs w bits beside the all-ones sentinel).
func widthCards(widths ...int) []int {
	cards := make([]int, len(widths))
	for j, w := range widths {
		cards[j] = 1<<w - 1
	}
	return cards
}

// genCodecPattern draws a random pattern over the codec's domains; starP is
// the per-attribute probability (out of 100) of drawing Star.
func genCodecPattern(rng *rand.Rand, cards []int, starP int) Pattern {
	p := make(Pattern, len(cards))
	for j := range p {
		if rng.Intn(100) < starP {
			p[j] = Star
		} else {
			p[j] = int32(rng.Int63n(int64(min(cards[j], 1<<31-1))))
		}
	}
	return p
}

// checkOpsMatchSlice compares every packed operation with its slice
// counterpart on random pattern pairs over one codec.
func checkOpsMatchSlice(t *testing.T, rng *rand.Rand, c *Codec, cards []int) {
	t.Helper()
	m := len(cards)
	pk := make([]uint64, c.Words())
	qk := make([]uint64, c.Words())
	lk := make([]uint64, c.Words())
	back := make(Pattern, m)
	for _, starP := range []int{0, 33, 80, 100} {
		for i := 0; i < 50; i++ {
			p := genCodecPattern(rng, cards, starP)
			q := genCodecPattern(rng, cards, starP)
			c.Pack(p, pk)
			c.Pack(q, qk)
			c.Unpack(pk, back)
			if !Equal(p, back) {
				t.Fatalf("round trip: %v -> %x -> %v (cards %v)", p, pk, back, cards)
			}
			if got, want := c.Covers(pk, qk), p.Covers(q); got != want {
				t.Fatalf("Covers(%v, %v) packed %v, slice %v (cards %v)", p, q, got, want, cards)
			}
			if got, want := c.Distance(pk, qk), Distance(p, q); got != want {
				t.Fatalf("Distance(%v, %v) packed %d, slice %d (cards %v)", p, q, got, want, cards)
			}
			c.LCA(lk, pk, qk)
			c.Unpack(lk, back)
			if want := LCA(p, q); !Equal(back, want) {
				t.Fatalf("LCA(%v, %v) packed %v, slice %v (cards %v)", p, q, back, want, cards)
			}
		}
	}
}

// TestPackedOpsMatchSlice is the packed-vs-slice property test: on random
// codecs of one, two and three words (and more), and on fixed layouts whose
// fields end exactly at bit 64, Covers, Distance and LCA must agree
// exactly between the packed and slice representations, and Pack/Unpack
// must round-trip.
func TestPackedOpsMatchSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seen := map[int]int{}
	for trial := 0; trial < 300; trial++ {
		c, cards := genCodec(rng, 1+rng.Intn(10))
		seen[c.Words()]++
		checkOpsMatchSlice(t, rng, c, cards)
	}
	for w := 1; w <= 3; w++ {
		if seen[w] == 0 {
			t.Fatalf("no random codec of %d words (seen %v)", w, seen)
		}
	}
	for _, tc := range []struct {
		widths []int
		words  int
	}{
		{[]int{4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4}, 1}, // 64 bits exactly
		{[]int{60, 4, 3}, 2},          // word 0 ends at bit 64, then a fresh word
		{[]int{32, 32, 31, 33, 5}, 3}, // two words filled exactly
		{[]int{40, 30, 40, 2}, 3},     // fields that do not fit move on whole
	} {
		cards := widthCards(tc.widths...)
		c := NewCodec(cards)
		if c.Words() != tc.words {
			t.Fatalf("widths %v: %d words, want %d", tc.widths, c.Words(), tc.words)
		}
		checkOpsMatchSlice(t, rng, c, cards)
	}
}

// TestPackedKeyInjective: distinct patterns must pack to distinct keys (the
// property the key tables rely on), on a one-word and a multi-word layout.
func TestPackedKeyInjective(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, cards := range [][]int{{3, 9, 40, 2, 17, 5}, widthCards(20, 30, 20, 3, 5, 2)} {
		c := NewCodec(cards)
		key := make([]uint64, c.Words())
		seen := map[[2]uint64]Pattern{}
		for i := 0; i < 20000; i++ {
			p := genCodecPattern(rng, cards, 33)
			c.Pack(p, key)
			var k [2]uint64
			copy(k[:], key)
			if q, ok := seen[k]; ok && !Equal(p, q) {
				t.Fatalf("key collision: %v and %v both pack to %x", p, q, key)
			}
			seen[k] = p.Clone()
		}
	}
}

// TestPackedAncestorsOrder: the packed enumeration must yield exactly the
// keys of the slice enumeration, in the same subset-mask order — cluster ids
// in the lattice index depend on this order being identical — at every key
// width.
func TestPackedAncestorsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	seen := map[int]bool{}
	for trial := 0; trial < 100; trial++ {
		m := 1 + rng.Intn(8)
		c, cards := genCodec(rng, m)
		seen[c.Words()] = true
		w := c.Words()
		tup := genCodecPattern(rng, cards, 0)
		key := make([]uint64, w)
		var want []uint64
		Ancestors(tup, func(p Pattern) {
			c.Pack(p, key)
			want = append(want, key...)
		})
		c.Pack(tup, key)
		got := c.AppendAncestors(key, nil)
		if len(got) != len(want) || len(got) != w<<m {
			t.Fatalf("m=%d words=%d: %d packed ancestor words, want %d", m, w, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("m=%d words=%d: ancestor %d word %d: packed %x, slice-packed %x", m, w, i/w, i%w, got[i], want[i])
			}
		}
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("ancestor enumeration not exercised at one and two words: %v", seen)
	}
}

// TestCodecOverflowFallback: widths past one word spill into further words
// instead of failing, each field staying whole inside one word, while the
// widest one-word layout still packs into a single word.
func TestCodecOverflowFallback(t *testing.T) {
	// 16 attributes x 4-bit fields = 64 bits: fits exactly.
	cards := make([]int, MaxAttrs)
	for j := range cards {
		cards[j] = 10 // needs 4 bits (sentinel 15)
	}
	c := NewCodec(cards)
	if c.Words() != 1 {
		t.Fatalf("16x4-bit codec has %d words, want 1", c.Words())
	}
	if all := c.AllStar(); len(all) != 1 || all[0] != ^uint64(0) {
		t.Fatalf("64-bit-exact all-star = %x", all)
	}

	// One more bit anywhere overflows into a second word.
	cards[0] = 16 // needs 5 bits
	if c := NewCodec(cards); c.Words() != 2 {
		t.Fatalf("65-bit codec has %d words, want 2", c.Words())
	}
	// A huge domain next to a small one takes a word each.
	if c := NewCodec([]int{1 << 62, 4}); c.Words() != 2 {
		t.Fatalf("63-bit field plus a 3-bit field: %d words, want 2", c.Words())
	}
	// Engine group keys may exceed MaxAttrs attributes; only the ancestor
	// enumeration is bounded by it.
	wide := make([]int, 3*MaxAttrs)
	for j := range wide {
		wide[j] = 100 // 7 bits, nine fields per word
	}
	c = NewCodec(wide)
	if c.Words() != 6 {
		t.Fatalf("48x7-bit codec has %d words, want 6", c.Words())
	}
	p := make(Pattern, len(wide))
	for j := range p {
		p[j] = int32(j)
	}
	key := make([]uint64, c.Words())
	back := make(Pattern, len(wide))
	c.Pack(p, key)
	c.Unpack(key, back)
	if !Equal(p, back) {
		t.Fatalf("48-attribute round trip: %v vs %v", p, back)
	}
	if c := NewCodec(nil); c.Words() != 1 {
		t.Fatalf("zero-attribute codec has %d words, want 1", c.Words())
	}
}

// TestPackChecked: out-of-range values, the sentinel bit pattern, and wrong
// arity must be rejected instead of packed into a colliding key.
func TestPackChecked(t *testing.T) {
	c := NewCodec([]int{3, 5}) // 2-bit and 3-bit fields
	key := make([]uint64, c.Words())
	want := make([]uint64, c.Words())
	c.Pack(Pattern{2, Star}, want)
	if !c.PackChecked(Pattern{2, Star}, key) || key[0] != want[0] {
		t.Fatalf("valid pattern rejected or mispacked: %x", key)
	}
	for _, bad := range []Pattern{
		{3, 0},      // 3 is the field-0 sentinel
		{4, 0},      // does not fit field 0
		{-2, 0},     // negative non-star
		{0, 7},      // field-1 sentinel
		{0, 1 << 9}, // far out of range
		{0},         // wrong arity
		{0, 0, 0},   // wrong arity
	} {
		if c.PackChecked(bad, key) {
			t.Errorf("PackChecked(%v) should fail", bad)
		}
	}

	// Regression: with a field near the top of the word, an out-of-range
	// value whose high bits fall off the 64-bit shift must not alias the key
	// of a valid value.
	cards := make([]int, MaxAttrs)
	for j := range cards {
		cards[j] = 9 // 4-bit fields; the last one sits at shift 60
	}
	wide := NewCodec(cards)
	p := make(Pattern, MaxAttrs)
	p[MaxAttrs-1] = 1 | 1<<10 // == 1 after the bits above the field shift off
	if wide.PackChecked(p, make([]uint64, wide.Words())) {
		t.Error("PackChecked must reject a value whose high bits overflow the shift")
	}
}

// TestPackColumn: building keys a column at a time over zeroed keys must
// produce exactly the keys Pack builds row by row, at every width.
func TestPackColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 50; trial++ {
		m := 1 + rng.Intn(12)
		c, cards := genCodec(rng, m)
		w := c.Words()
		const nRows = 40
		cols := make([][]int32, m)
		for j := range cols {
			cols[j] = make([]int32, nRows)
			for r := range cols[j] {
				cols[j][r] = int32(rng.Int63n(int64(min(cards[j], 1<<31-1))))
			}
		}
		rows := []int32{3, 0, 17, 17, 39, 8}
		keys := make([]uint64, len(rows)*w)
		for j := range cols {
			c.PackColumn(keys, j, cols[j], rows)
		}
		want := make([]uint64, w)
		tup := make(Pattern, m)
		for i, r := range rows {
			for j := range tup {
				tup[j] = cols[j][r]
			}
			c.Pack(tup, want)
			for x := range want {
				if keys[i*w+x] != want[x] {
					t.Fatalf("cards %v row %d word %d: column-packed %x, Pack %x", cards, r, x, keys[i*w+x], want[x])
				}
			}
		}
	}
}

// TestCodecSameLayout pins when two codecs pack alike: cardinalities that
// keep every field width agree, a field that widens or an extra attribute
// does not.
func TestCodecSameLayout(t *testing.T) {
	base := NewCodec([]int{3, 5, 40})
	for _, tc := range []struct {
		cards []int
		same  bool
	}{
		{[]int{3, 5, 40}, true},
		{[]int{2, 6, 63}, true},
		{[]int{4, 5, 40}, false},
		{[]int{3, 5, 64}, false},
		{[]int{3, 5}, false},
	} {
		if got := base.SameLayout(NewCodec(tc.cards)); got != tc.same {
			t.Errorf("SameLayout(%v) = %v, want %v", tc.cards, got, tc.same)
		}
	}
}
