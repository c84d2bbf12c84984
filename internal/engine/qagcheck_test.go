//go:build qagcheck

package engine

import (
	"strings"
	"testing"

	"qagview/internal/relation"
)

// Only meaningful under -tags qagcheck: the join-tuple assertions must
// actually fire on a corrupt tuple stream, otherwise the CI job checks
// nothing.
func TestQagcheckCatchesBadJoinTuples(t *testing.T) {
	rels := []*relation.Relation{
		relation.MustFromColumns("a", relation.IntCol("k", []int64{1, 2, 3})),
		relation.MustFromColumns("b", relation.IntCol("k", []int64{1, 2})),
	}
	for _, c := range []struct {
		name   string
		tuples [][]int32
		want   string
	}{
		{"ragged", [][]int32{{0, 1}, {0}}, "has 1 tuples"},
		{"out of range", [][]int32{{0, 1}, {0, 2}}, "out of range"},
		{"negative", [][]int32{{-1}, {0}}, "out of range"},
		{"descending", [][]int32{{1, 0}, {0, 0}}, "not strictly ascending"},
		{"duplicate", [][]int32{{0, 0}, {1, 1}}, "not strictly ascending"},
		{"missing column", [][]int32{{0}}, "row-id columns"},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("assertJoinTuples accepted %v", c.tuples)
				}
				if !strings.Contains(r.(string), c.want) {
					t.Fatalf("panic %q, want it to mention %q", r, c.want)
				}
			}()
			assertJoinTuples(c.tuples, rels)
		})
	}
	// The canonical order passes: ascending by table 0, then table 1.
	assertJoinTuples([][]int32{{0, 0, 2}, {0, 1, 0}}, rels)
}

// The fold oracle must fire on a fold whose retained state is corrupt (a
// sum no full execution reproduces) and on a wrong changed flag: previous
// value bits corrupted before a batch that leaves the output unchanged
// (x = 0 adds nothing to p's sum) make the fold report a change.
func TestQagcheckCatchesBadFold(t *testing.T) {
	q, err := Parse("select a, sum(x) as v from t group by a order by v desc")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		corrupt func(*Retained)
		x       float64 // the appended row's value, in group p
		want    string
	}{
		{"corrupt sum", func(r *Retained) { r.t.sum[0] += 1 }, 5, "differs from a full execution"},
		{"stale previous output", func(r *Retained) { r.bits[0]++ }, 0, "changed = true"},
	} {
		t.Run(c.name, func(t *testing.T) {
			rel := relation.MustFromColumns("t", relation.StringCol("a", []string{"p", "q"}), relation.FloatCol("x", []float64{1, 2}))
			next, err := rel.Append([]relation.Column{relation.StringCol("a", []string{"p"}), relation.FloatCol("x", []float64{c.x})})
			if err != nil {
				t.Fatal(err)
			}
			_, kept, err := Retain(catalog{"t": rel}, q)
			if err != nil || kept == nil {
				t.Fatalf("Retain: %v, %v", kept, err)
			}
			c.corrupt(kept)
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("the fold oracle accepted a corrupt fold")
				}
				if !strings.Contains(r.(string), c.want) {
					t.Fatalf("panic %q, want it to mention %q", r, c.want)
				}
			}()
			kept.Fold(catalog{"t": next})
		})
	}
}
