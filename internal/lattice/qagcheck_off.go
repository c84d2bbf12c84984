//go:build !qagcheck

package lattice

// Without -tags qagcheck the assertions compile to nothing.
func assertIndexInvariants(ix *Index, origin string) {}

func assertFill(ix *Index, c *Cluster) {}
