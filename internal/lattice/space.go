// Package lattice builds the cluster space of the paper: the semilattice of
// *-patterns generated by the top-L answer tuples (Section 4.2), together
// with the cluster→tuple mapping needed to evaluate coverage and average
// values. BuildIndex implements the "cluster generation and mapping to
// tuples" optimization of Section 6.3 (reported 100x–1000x there), mapping
// each cluster from posting bitmaps when it is first used;
// BuildIndexNaive is the unoptimized variant kept for the Figure 8a ablation.
package lattice

import (
	"fmt"
	"sort"
	"strings"

	"qagview/internal/pattern"
	"qagview/internal/relation"
)

// Space is the output relation S of an aggregate query in dictionary-encoded
// form: tuples over m categorical attributes, each with a value, sorted in
// descending value order so that Tuples[i] has rank i+1.
type Space struct {
	// Attrs holds the m attribute names.
	Attrs []string
	// Dicts holds one dictionary per attribute mapping strings to dense ids.
	Dicts []*relation.Dict
	// Tuples holds the dictionary-encoded answer tuples in rank order.
	Tuples []pattern.Pattern
	// Vals holds the tuple values aligned with Tuples (non-increasing).
	Vals []float64
}

// NewSpace dictionary-encodes rows (one []string per answer tuple) and their
// values, and sorts them by descending value (stable, so input order breaks
// ties).
func NewSpace(attrs []string, rows [][]string, vals []float64) (*Space, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("lattice: no attributes")
	}
	if len(rows) != len(vals) {
		return nil, fmt.Errorf("lattice: %d rows but %d values", len(rows), len(vals))
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("lattice: empty answer set")
	}
	m := len(attrs)
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return vals[idx[a]] > vals[idx[b]] })

	s := &Space{
		Attrs:  append([]string(nil), attrs...),
		Dicts:  make([]*relation.Dict, m),
		Tuples: make([]pattern.Pattern, len(rows)),
		Vals:   make([]float64, len(rows)),
	}
	for j := 0; j < m; j++ {
		s.Dicts[j] = relation.NewDict()
	}
	for out, in := range idx {
		row := rows[in]
		if len(row) != m {
			return nil, fmt.Errorf("lattice: row %d has %d attributes, want %d", in, len(row), m)
		}
		t := make(pattern.Pattern, m)
		for j := 0; j < m; j++ {
			t[j] = s.Dicts[j].ID(row[j])
		}
		s.Tuples[out] = t
		s.Vals[out] = vals[in]
	}
	return s, nil
}

// N returns the number of answer tuples.
func (s *Space) N() int { return len(s.Tuples) }

// M returns the number of attributes.
func (s *Space) M() int { return len(s.Attrs) }

// Render maps a pattern back to attribute-value strings, with "*" for Star.
func (s *Space) Render(p pattern.Pattern) []string {
	out := make([]string, len(p))
	for i, v := range p {
		if v == pattern.Star {
			out[i] = "*"
		} else {
			out[i] = s.Dicts[i].Value(v)
		}
	}
	return out
}

// FormatPattern renders a pattern as "(1980, *, M, *)".
func (s *Space) FormatPattern(p pattern.Pattern) string {
	return "(" + strings.Join(s.Render(p), ", ") + ")"
}

// Encode dictionary-encodes a rendered row, returning false if any value is
// outside the corresponding active domain.
func (s *Space) Encode(row []string) (pattern.Pattern, bool) {
	if len(row) != s.M() {
		return nil, false
	}
	p := make(pattern.Pattern, len(row))
	for j, v := range row {
		if v == "*" {
			p[j] = pattern.Star
			continue
		}
		id, ok := s.Dicts[j].Lookup(v)
		if !ok {
			return nil, false
		}
		p[j] = id
	}
	return p, true
}
