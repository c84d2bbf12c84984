// Package a exercises cowcheck from outside the owning packages.
package a

import (
	"lattice"
	"relation"
)

// Rule 1: field writes to published index state.
func fieldWrites(ix *lattice.Index, c *lattice.Cluster) {
	c.Sum = 3.0                      // want `write to lattice.Cluster.Sum outside internal/lattice`
	ix.Clusters[0].Sum = 1           // want `write to lattice.Cluster.Sum outside internal/lattice`
	ix.Clusters[0] = *c              // want `write into lattice.Index.Clusters outside internal/lattice`
	ix.Dicts[0] = relation.NewDict() // want `write into lattice.Index.Dicts outside internal/lattice`
}

// Rule 1: writes through coverage-arena views, direct and via aliases.
func covWrites(c *lattice.Cluster) {
	c.Cov[0] = 1 // want `write through a coverage-arena subslice`
	cov := c.Cov
	cov[1] = 2 // want `write through a coverage-arena subslice`
	tail := cov[1:]
	tail[0] = 3 // want `write through a coverage-arena subslice`
}

// Rule 1: writes through coverage-bitmap views, direct and via aliases.
func bitsWrites(c *lattice.Cluster) {
	c.Bits[0] = 1  // want `write through a coverage-arena subslice`
	c.Bits[1] |= 2 // want `write through a coverage-arena subslice`
	c.Bits[2]++    // want `write through a coverage-arena subslice`
	bits := c.Bits
	bits[0] &^= 1 // want `write through a coverage-arena subslice`
	rest := bits[1:]
	rest[0] = 0   // want `write through a coverage-arena subslice`
	c.BitsOff = 3 // want `write to lattice.Cluster.BitsOff outside internal/lattice`
	c.Bits = nil  // want `write to lattice.Cluster.Bits outside internal/lattice`
}

// Reading coverage is what the views are for, and a copy is the reader's
// own.
func covReads(c *lattice.Cluster) int32 {
	var total int32
	cov := c.Cov
	for _, id := range cov {
		total += id
	}
	words := append([]uint64(nil), c.Bits...)
	words[0] = 0
	for _, w := range c.Bits {
		total += int32(w & 1)
	}
	return total + c.Cov[0] + int32(words[0])
}

// Rule 2: interning into a possibly-shared dictionary.
func internShared(d *relation.Dict) int32 {
	return d.ID("v") // want `Dict.ID interns \(mutates\) a dictionary that may be shared`
}

// Clone-then-mutate (the encodeRowsCOW idiom) is the sanctioned path.
func internCloned(d *relation.Dict) int32 {
	own := d.Clone()
	return own.ID("v")
}

// Fresh construction owns the dictionary outright (the NewSpace idiom).
func internFresh(vals []string) *relation.Dict {
	d := relation.NewDict()
	for _, v := range vals {
		d.ID(v)
	}
	return d
}

// Lookup is the read-only query.
func lookupOnly(d *relation.Dict) (int32, bool) {
	return d.Lookup("v")
}

// Rule 3: COW results must be used.
func discarded(ix *lattice.Index) {
	ix.ApplyDelta(1)        // want `ApplyDelta result discarded`
	ix.Rebase(2)            // want `Rebase result discarded`
	_, _ = ix.ApplyDelta(3) // want `ApplyDelta result discarded`
}

func used(ix *lattice.Index) *lattice.Index {
	nix, _ := ix.ApplyDelta(1)
	return nix.Rebase(2)
}

// Suppression: a justified exception is honored.
func allowedWrite(c *lattice.Cluster) {
	//qag:allow cowcheck fixture: cluster is a private deep copy under test
	c.Sum = 9
}

// Rule 4: writes into, and appends onto, arrays shared by every generation
// of an appended table.
func sharedColumnWrites(r *relation.Relation) {
	r.Column(0).Str[0] = "x" // want `write into relation.Column.Str outside internal/relation`
	r.Column(1).Int[0]++     // want `write into relation.Column.Int outside internal/relation`
	c := r.Column(2)
	c.Float[0] = 1               // want `write into relation.Column.Float outside internal/relation`
	c.Float = append(c.Float, 2) // want `append onto relation.Column.Float outside internal/relation`
	named, _ := r.ColumnByName("s")
	named.Str[1] = "y" // want `write into relation.Column.Str outside internal/relation`
	vals := r.Column(0).Str
	vals[2] = "z" // want `write into relation.Column.Str outside internal/relation`
	tail := vals[1:]
	tail[0] = "w"                  // want `write into relation.Column.Str outside internal/relation`
	_ = append(r.Column(1).Int, 7) // want `append onto relation.Column.Int outside internal/relation`
	copyOf := *r.Column(0)
	copyOf.Str[0] = "v" // want `write into relation.Column.Str outside internal/relation`
}

func sharedEncodingWrites(r *relation.Relation) {
	d := r.DictCodes(0)
	d.Codes[0] = 3         // want `write into relation.ColDict.Codes outside internal/relation`
	_ = append(d.Codes, 4) // want `append onto relation.ColDict.Codes outside internal/relation`
	g := r.CodeGroups(0)
	g.Starts[1] = 0            // want `write into relation.ColGroups.Starts outside internal/relation`
	g.Rows = append(g.Rows, 9) // want `append onto relation.ColGroups.Rows outside internal/relation`
	codes := g.Dict.Codes
	codes[0]-- // want `write into relation.ColDict.Codes outside internal/relation`
}

// Reading shared arrays, and building fresh columns, are fine.
func freshColumns(r *relation.Relation, rows [][]string) []relation.Column {
	total := 0
	for _, s := range r.Column(0).Str {
		total += len(s)
	}
	out := make([]relation.Column, 1)
	for _, row := range rows {
		out[0].Str = append(out[0].Str, row[0])
	}
	c := &out[0]
	c.Str[0] = r.Column(0).Str[0]
	fresh := relation.Column{Name: "n", Int: make([]int64, total)}
	fresh.Int[0] = int64(r.DictCodes(0).Codes[0])
	fresh.Int = append(fresh.Int, 1)
	own := append([]int32(nil), r.DictCodes(0).Codes...)
	own[0] = 0
	return append(out, fresh)
}
