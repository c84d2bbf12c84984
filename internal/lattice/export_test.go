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

// SingletonID returns the id of the rank-th top tuple's singleton cluster,
// filling nothing.
func (ix *Index) SingletonID(rank int) int32 { return ix.singleton[rank] }
