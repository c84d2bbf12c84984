//go:build !qagcheck

package delta

import "qagview/internal/lattice"

// Without -tags qagcheck the assertions compile to nothing.
func assertOrigin(*lattice.Space, [][]string, []float64, []int32) {}
