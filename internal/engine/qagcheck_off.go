//go:build !qagcheck

package engine

import "qagview/internal/relation"

// Without -tags qagcheck the assertions compile to nothing.
func assertJoinTuples(tuples [][]int32, rels []*relation.Relation) {}
