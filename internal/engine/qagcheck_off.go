//go:build !qagcheck

package engine

import "qagview/internal/relation"

// Without -tags qagcheck the assertions compile to nothing.
func assertJoinTuples(tuples [][]int32, rels []*relation.Relation) {}

// foldCheck is the fold oracle's state; empty without the tag.
type foldCheck struct{}

func (foldCheck) seed(*Result)                    {}
func (foldCheck) fold(*vecPlan, *Result, *Folded) {}
