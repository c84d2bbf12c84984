// Package lattice is a hermetic fixture stub standing in for
// qagview/internal/lattice. It doubles as the in-package negative: writes to
// Cluster/Index state inside the owning package are the maintenance code
// itself and are not flagged.
package lattice

import "relation"

type Cluster struct {
	ID      int32
	BitsOff int32
	Cov     []int32
	Bits    []uint64
	Sum     float64
}

type Index struct {
	Clusters []Cluster
	Dicts    []*relation.Dict
}

func (ix *Index) ApplyDelta(n int) (*Index, int) { return ix, n }

func (ix *Index) Rebase(n int) *Index { return ix }

// maintain is the owning package's own mutation path: exempt from rule 1.
func maintain(ix *Index) {
	ix.Clusters[0].Sum = 1
	ix.Clusters[0].Cov[0] = 2
	ix.Clusters[0].Bits[0] |= 4
	ix.Clusters[0] = Cluster{}
}
