package pattern

import "math/bits"

// Codec packs whole patterns into fixed-width keys of 64-bit words. Each
// attribute gets a bit field just wide enough for its active domain plus the
// Star sentinel (the all-ones field value, which no dictionary id can take).
// Fields are laid out in attribute order, filling a word before starting the
// next, and no field crosses a word boundary, so a pattern over m attributes
// becomes ⌈total bits / 64⌉ words (Words), usable directly as a hash key, and
// the pattern algebra (Covers, Distance, LCA) runs word-parallel on masks and
// popcounts, word by word, instead of looping over []int32 positions.
//
// A key is a []uint64 of exactly Words() words. Packing is injective (each
// distinct pattern has one key), and all operations agree exactly with their
// slice counterparts — see the property tests in packed_test.go.
type Codec struct {
	m     int
	words int
	word  []int    // key word holding each attribute's field
	shift []uint8  // bit offset of each field within its word
	field []uint64 // all-ones mask over each attribute's field (== the Star sentinel)

	// low[j] is the union of the fields before attribute j in j's word: the
	// mask the ancestor enumeration restores when it un-stars them.
	low []uint64

	// Per word: the top bit of every field, every field bit except its top,
	// and every field bit (== the all-star pattern).
	hiMask, loMask, allMask []uint64
}

// NewCodec derives field widths from per-attribute cardinalities (active
// domain sizes): attribute j gets the narrowest field holding ids 0..cards[j]-1
// plus the all-ones Star sentinel. A field that would cross the current
// word's end starts the next word. Keys have at least one word, so a codec
// over zero attributes packs everything to the same key.
func NewCodec(cards []int) *Codec {
	m := len(cards)
	c := &Codec{
		m:     m,
		word:  make([]int, m),
		shift: make([]uint8, m),
		field: make([]uint64, m),
		low:   make([]uint64, m),
	}
	w, off := 0, 0
	for j, card := range cards {
		// Need (1<<width)-1 > card-1, i.e. 1<<width >= card+1: ids stay below
		// the all-ones sentinel.
		width := bits.Len(uint(card))
		if width == 0 {
			width = 1
		}
		if off+width > 64 {
			w, off = w+1, 0
		}
		c.word[j] = w
		c.shift[j] = uint8(off)
		c.field[j] = (^uint64(0) >> (64 - width)) << off
		c.low[j] = (uint64(1) << off) - 1
		off += width
	}
	c.words = w + 1
	c.hiMask = make([]uint64, c.words)
	c.loMask = make([]uint64, c.words)
	c.allMask = make([]uint64, c.words)
	for j, f := range c.field {
		w := c.word[j]
		top := uint64(1) << (bits.Len64(f) - 1)
		c.hiMask[w] |= top
		c.allMask[w] |= f
		c.loMask[w] |= f &^ top
	}
	return c
}

// Words returns the number of 64-bit words in every key of this codec.
func (c *Codec) Words() int { return c.words }

// CardFits reports whether attribute j's field can hold an active domain of
// the given cardinality: every id 0..card-1 must stay strictly below the
// all-ones Star sentinel. A retained aggregation uses it to detect when
// newly interned dictionary values overflow its packed widths.
func (c *Codec) CardFits(j, card int) bool {
	return uint64(card) <= c.field[j]>>c.shift[j]
}

// SameLayout reports whether o packs every pattern into the same key as c:
// the same attribute count, word count, and field of every attribute. Keys
// of two such codecs can be compared across their tables directly.
func (c *Codec) SameLayout(o *Codec) bool {
	if c.m != o.m || c.words != o.words {
		return false
	}
	for j := range c.field {
		if c.word[j] != o.word[j] || c.field[j] != o.field[j] {
			return false
		}
	}
	return true
}

// AllStar returns a fresh key holding the all-star pattern.
func (c *Codec) AllStar() []uint64 {
	return append([]uint64(nil), c.allMask...)
}

// Pack encodes p into key (Words() words, overwritten). p must have m
// attributes with every concrete value in its field's range (true for any
// pattern over the codec's dictionaries). Use PackChecked for patterns from
// untrusted sources.
func (c *Codec) Pack(p Pattern, key []uint64) {
	clear(key[:c.words])
	for j, v := range p {
		if v == Star {
			key[c.word[j]] |= c.field[j]
		} else {
			key[c.word[j]] |= uint64(uint32(v)) << c.shift[j]
		}
	}
}

// PackChecked is Pack validating arity and field ranges: it reports false
// when p has the wrong number of attributes or a concrete value that does
// not fit its field below the Star sentinel (such a pattern cannot equal any
// packed pattern of this codec's space, so lookups by key must treat it as
// absent rather than risk a colliding encoding).
func (c *Codec) PackChecked(p Pattern, key []uint64) bool {
	if len(p) != c.m {
		return false
	}
	clear(key[:c.words])
	for j, v := range p {
		if v == Star {
			key[c.word[j]] |= c.field[j]
			continue
		}
		// Validate before shifting: a shift can push high bits off the word
		// and alias a different (valid) key. Values must stay strictly below
		// the all-ones sentinel.
		if v < 0 || uint64(v) >= c.field[j]>>c.shift[j] {
			return false
		}
		key[c.word[j]] |= uint64(v) << c.shift[j]
	}
	return true
}

// PackColumn ors attribute j's values into a batch of keys laid out Words()
// words apart: key i receives codes[rows[i]]. Building keys a column at a
// time over zeroed keys is the vectorized form of Pack; codes must be
// concrete ids within the field's range.
func (c *Codec) PackColumn(keys []uint64, j int, codes, rows []int32) {
	w, sh, stride := c.word[j], c.shift[j], c.words
	if stride == 1 {
		keys = keys[:len(rows)]
		for i, r := range rows {
			keys[i] |= uint64(uint32(codes[r])) << sh
		}
		return
	}
	for i, r := range rows {
		keys[i*stride+w] |= uint64(uint32(codes[r])) << sh
	}
}

// Unpack decodes key into dst, which must have m attributes.
func (c *Codec) Unpack(key []uint64, dst Pattern) {
	for j := range dst {
		f := key[c.word[j]] & c.field[j]
		if f == c.field[j] {
			dst[j] = Star
		} else {
			dst[j] = int32(f >> c.shift[j])
		}
	}
}

// nonzero returns a per-field indicator of the fields of x (word w of a key)
// that are nonzero, one bit at each such field's top position (the SWAR
// carry trick: adding the low-bits mask to a field's low bits carries into
// its top bit exactly when some low bit is set; carries cannot cross fields
// because each sum stays below the field's capacity).
func (c *Codec) nonzero(w int, x uint64) uint64 {
	return ((x & c.loMask[w]) + c.loMask[w] | x) & c.hiMask[w]
}

// starBits returns a per-field indicator (top bit of each field) of the
// fields of word w of a key that hold the Star sentinel: exactly the fields
// where the complement within the field mask is zero.
func (c *Codec) starBits(w int, p uint64) uint64 {
	return c.hiMask[w] &^ c.nonzero(w, p^c.allMask[w])
}

// Covers reports whether packed p covers packed q: every field of p is Star
// or equal to q's. It is the word-parallel equivalent of Pattern.Covers.
func (c *Codec) Covers(p, q []uint64) bool {
	for w, pw := range p[:c.words] {
		if c.nonzero(w, pw^q[w])&^c.starBits(w, pw) != 0 {
			return false
		}
	}
	return true
}

// Distance is the cluster distance of Definition 3.1 on packed patterns: the
// popcount of the per-field indicator of fields where the sides differ or at
// least one is Star. (A Star differs bitwise from every concrete id, so the
// xor term already covers star-vs-concrete fields; star-vs-star is added by
// the starBits term.)
func (c *Codec) Distance(p, q []uint64) int {
	d := 0
	for w, pw := range p[:c.words] {
		d += bits.OnesCount64(c.nonzero(w, pw^q[w]) | c.starBits(w, pw))
	}
	return d
}

// LCA writes the packed least common ancestor of p and q into dst: fields
// where p and q agree on a concrete value are kept, every other field
// becomes Star. The fields to star arrive as one top-bit indicator per word;
// each set bit is widened to its full field, which runs from just above the
// next lower field's top bit up to the indicator bit itself.
func (c *Codec) LCA(dst, p, q []uint64) {
	for w, pw := range p[:c.words] {
		r := pw
		for s := c.nonzero(w, pw^q[w]) | c.starBits(w, pw); s != 0; s &= s - 1 {
			top := s & -s
			below := c.hiMask[w] & (top - 1)
			r |= (top | (top - 1)) &^ (uint64(1)<<bits.Len64(below) - 1)
		}
		dst[w] = r
	}
}

// AppendAncestors appends the keys of all 2^m generalizations of the packed
// concrete tuple base to dst, Words() words each, in the same subset-bitmask
// order as Ancestors (bit j of the mask = attribute j starred): the tuple
// itself first, the all-star pattern last. Each step stars one new field
// and un-stars the run of fields below it, which sit in the same word or in
// lower words, so the next key is patched from the previous one instead of
// being rebuilt. Enumerating into a reused buffer removes any callback
// indirection per ancestor, which matters in the cluster-mapping loop that
// runs this once per tuple.
func (c *Codec) AppendAncestors(base, dst []uint64) []uint64 {
	last := uint32(1) << c.m
	if c.words == 1 {
		// One word: accumulate the star mask and or it into the base.
		b := base[0]
		dst = append(dst, b)
		var acc uint64
		for mask := uint32(1); mask < last; mask++ {
			k := bits.TrailingZeros32(mask)
			acc = acc&^c.low[k] | c.field[k]
			dst = append(dst, b|acc)
		}
		return dst
	}
	n := c.words
	dst = append(dst, base[:n]...)
	for mask := uint32(1); mask < last; mask++ {
		k := bits.TrailingZeros32(mask)
		dst = append(dst, dst[len(dst)-n:]...)
		cur := dst[len(dst)-n:]
		w := c.word[k]
		copy(cur[:w], base)
		cur[w] = cur[w]&^c.low[k] | base[w]&c.low[k] | c.field[k]
	}
	return dst
}
