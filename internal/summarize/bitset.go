package summarize

// bitset is a fixed-size bitmap over tuple indices.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) has(i int32) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

func (b bitset) set(i int32) { b[i>>6] |= 1 << (uint(i) & 63) }
