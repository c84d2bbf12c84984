package lattice

// FilledIDs lists the ids of the filled clusters, ascending, filling none.
func (ix *Index) FilledIDs() []int32 {
	var ids []int32
	for id := range ix.cells {
		if ix.cells[id].Load() != nil {
			ids = append(ids, int32(id))
		}
	}
	return ids
}

// LCAOf returns the id of the LCA of clusters a and b from the keys alone,
// filling nothing and memoizing nothing.
func (ix *Index) LCAOf(a, b int32) (int32, bool) {
	var buf [maxKeyWords]uint64
	key := buf[:ix.codec.Words()]
	ix.codec.LCA(key, ix.key(a), ix.key(b))
	return ix.table.Find(key)
}

// SingletonID returns the id of the rank-th top tuple's singleton cluster,
// filling nothing.
func (ix *Index) SingletonID(rank int) int32 { return ix.singleton[rank] }
