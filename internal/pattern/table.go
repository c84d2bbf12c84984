package pattern

// Table is an open-addressing hash table from packed keys (a fixed number of
// 64-bit words each, as laid out by a Codec) to int32 ids. Linear probing
// over one entry array with a Fibonacci-multiplicative hash keeps a probe to
// about one cache line and no runtime map overhead. Each entry holds the
// key's first word, its id, and an epoch stamp, so emptying the table for
// reuse is one counter bump instead of a clear; the words past the first,
// if any, sit in a parallel slot-aligned array that a probe reads only on a
// first-word match. Callers that need keys back by id keep them alongside.
//
// A Table is single-writer: fill it, then share it for concurrent read-only
// Find calls.
type Table struct {
	words   int
	n       int
	entries []entry
	rest    []uint64 // words 1..words-1 of the key in slot i, at i*(words-1)
	shift   uint     // 64 - log2(len(entries)), for the multiplicative hash
	epoch   uint32
}

type entry struct {
	first uint64
	id    int32
	epoch uint32 // live iff equal to the table's epoch
}

// fibHash is 2^64 / phi, the standard multiplicative-hash constant: it
// spreads low-entropy packed keys (few fields vary) across the table.
const fibHash = 0x9E3779B97F4A7C15

// NewTable returns an empty table for keys of the given word count, sized
// for about capHint keys before it regrows.
func NewTable(words, capHint int) *Table {
	t := new(Table)
	t.Reset(words, capHint)
	return t
}

// Reset empties the table and rekeys it for keys of the given word count,
// keeping its storage. The entry array is enlarged to hold about capHint
// keys when it is smaller; a larger one (grown by earlier use) is kept.
func (t *Table) Reset(words, capHint int) {
	t.words, t.n = words, 0
	size := 64
	for size < capHint*2 {
		size <<= 1
	}
	if len(t.entries) < size {
		t.entries = make([]entry, size)
		t.shift = uint(64 - log2(size))
		t.epoch = 1
	} else {
		t.epoch++
		if t.epoch == 0 { // wrapped: stale stamps could alias, start clean
			clear(t.entries)
			t.epoch = 1
		}
	}
	if r := len(t.entries) * (words - 1); len(t.rest) < r {
		t.rest = make([]uint64, r)
	}
}

func log2(pow2 int) int {
	n := 0
	for pow2 > 1 {
		pow2 >>= 1
		n++
	}
	return n
}

// Len returns the number of keys stored.
func (t *Table) Len() int { return t.n }

// Bytes returns the table's storage size in bytes (entries and key words),
// for cache accounting.
func (t *Table) Bytes() int64 {
	return int64(len(t.entries))*16 + int64(len(t.rest))*8
}

// home returns the home slot of the key whose first word is first and whose
// further words are rest.
func (t *Table) home(first uint64, rest []uint64) uint64 {
	h := first * fibHash
	for _, w := range rest {
		h = (h ^ w) * fibHash
	}
	return h >> t.shift
}

// restAt returns the stored words past the first of slot i.
func (t *Table) restAt(i uint64) []uint64 {
	r := uint64(t.words - 1)
	return t.rest[i*r : (i+1)*r]
}

// matches reports whether slot i, whose first word matched, holds key.
func (t *Table) matches(i uint64, key []uint64) bool {
	for x, w := range t.restAt(i) {
		if w != key[x+1] {
			return false
		}
	}
	return true
}

// Find returns the id stored for key.
func (t *Table) Find(key []uint64) (int32, bool) {
	mask := uint64(len(t.entries) - 1)
	first := key[0]
	for i := t.home(first, key[1:t.words]); ; i = (i + 1) & mask {
		e := &t.entries[i]
		if e.epoch != t.epoch {
			return 0, false
		}
		if e.first == first && (t.words == 1 || t.matches(i, key)) {
			return e.id, true
		}
	}
}

// FindAll looks up a batch of keys laid out flat, one key width apart, and
// writes each key's id to ids, one per key, or -1 for an absent key (so it
// serves tables whose ids are non-negative).
func (t *Table) FindAll(keys []uint64, ids []int32) {
	if t.words > 1 {
		for i := range ids {
			id, ok := t.Find(keys[i*t.words : (i+1)*t.words])
			if !ok {
				id = -1
			}
			ids[i] = id
		}
		return
	}
	// One word: Find's probe loop, inlined over the batch.
	mask := uint64(len(t.entries) - 1)
	for i, k := range keys[:len(ids)] {
		ids[i] = -1
		for j := (k * fibHash) >> t.shift; ; j = (j + 1) & mask {
			e := &t.entries[j]
			if e.epoch != t.epoch {
				break
			}
			if e.first == k {
				ids[i] = e.id
				break
			}
		}
	}
}

// Insert returns the id already stored for key, or stores key with the
// given id and reports inserted = true: one probe sequence serves both the
// lookup and the insertion.
func (t *Table) Insert(key []uint64, id int32) (int32, bool) {
	if (t.n+1)*4 >= len(t.entries)*3 {
		t.grow()
	}
	mask := uint64(len(t.entries) - 1)
	first := key[0]
	for i := t.home(first, key[1:t.words]); ; i = (i + 1) & mask {
		e := &t.entries[i]
		if e.epoch != t.epoch {
			*e = entry{first: first, id: id, epoch: t.epoch}
			copy(t.restAt(i), key[1:t.words])
			t.n++
			return id, true
		}
		if e.first == first && (t.words == 1 || t.matches(i, key)) {
			return e.id, false
		}
	}
}

// InsertAll inserts a batch of keys laid out flat, one key width apart,
// storing each key absent so far under the next dense id (Len at its turn),
// and writes each key's id to ids, one per key. A key is therefore new
// exactly when its id equals the number of distinct keys seen before it —
// the first-seen test batch callers use.
func (t *Table) InsertAll(keys []uint64, ids []int32) {
	if t.words > 1 {
		for i := range ids {
			ids[i], _ = t.Insert(keys[i*t.words:(i+1)*t.words], int32(t.n))
		}
		return
	}
	// One word: Insert's probe loop, inlined over the batch.
	for i, k := range keys[:len(ids)] {
		if (t.n+1)*4 >= len(t.entries)*3 {
			t.grow()
		}
		mask := uint64(len(t.entries) - 1)
		for j := (k * fibHash) >> t.shift; ; j = (j + 1) & mask {
			e := &t.entries[j]
			if e.epoch != t.epoch {
				*e = entry{first: k, id: int32(t.n), epoch: t.epoch}
				ids[i] = int32(t.n)
				t.n++
				break
			}
			if e.first == k {
				ids[i] = e.id
				break
			}
		}
	}
}

// grow doubles the entry array and re-places every live entry.
func (t *Table) grow() {
	old, oldRest, r := t.entries, t.rest, uint64(t.words-1)
	t.entries = make([]entry, 2*len(old))
	t.rest = make([]uint64, uint64(len(t.entries))*r)
	t.shift--
	mask := uint64(len(t.entries) - 1)
	for oi, e := range old {
		if e.epoch != t.epoch {
			continue
		}
		rest := oldRest[uint64(oi)*r : uint64(oi+1)*r]
		i := t.home(e.first, rest)
		for t.entries[i].epoch == t.epoch {
			i = (i + 1) & mask
		}
		t.entries[i] = e
		copy(t.restAt(i), rest)
	}
}
