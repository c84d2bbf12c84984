package precompute

import (
	"bytes"
	"math"
	"testing"

	"qagview/internal/lattice"
)

// encode returns one Encode of st.
func encode(t *testing.T, st *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEncodeIsDeterministic: two stores precomputed independently over the
// same space, L and six-D grid encode to the same bytes, every time, and
// Encode → Decode → Encode reproduces them byte for byte.
func TestEncodeIsDeterministic(t *testing.T) {
	ds := []int{0, 1, 2, 3, 4, 5}
	a, err := Run(randomIndex(t, 21, 150, 6, 3, 30), 30, 1, 12, ds)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(randomIndex(t, 21, 150, 6, 3, 30), 30, 1, 12, ds)
	if err != nil {
		t.Fatal(err)
	}
	want := encode(t, a)
	for i := 0; i < 20; i++ {
		for _, st := range []*Store{a, b} {
			if got := encode(t, st); !bytes.Equal(got, want) {
				t.Fatalf("encode %d: %d bytes differ from the first encode", i, len(got))
			}
		}
	}
	back, err := Decode(bytes.NewReader(want), a.ix)
	if err != nil {
		t.Fatal(err)
	}
	if got := encode(t, back); !bytes.Equal(got, want) {
		t.Fatal("Encode → Decode → Encode changed the bytes")
	}
}

// TestStoreOnDemandMatchesNaive precomputes the same grid over a fresh
// on-demand index and over the naive index of the same space: every store
// cell, the guidance series and the encoded bytes must be identical.
func TestStoreOnDemandMatchesNaive(t *testing.T) {
	for _, ix := range []*lattice.Index{randomIndex(t, 22, 150, 5, 3, 30), movieLensIndex(t, 120)} {
		nv, err := lattice.BuildIndexNaive(ix.Space, ix.L)
		if err != nil {
			t.Fatal(err)
		}
		ds := []int{1, 2, 3}
		got, err := Run(ix, ix.L, 1, 15, ds)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(nv, nv.L, 1, 15, ds)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encode(t, got), encode(t, want)) {
			t.Fatal("stores encode differently")
		}
		for _, d := range ds {
			gs, ws := got.Guidance().Series[d], want.Guidance().Series[d]
			for k := 1; k <= 15; k++ {
				if math.Float64bits(gs[k-1]) != math.Float64bits(ws[k-1]) {
					t.Fatalf("guidance (k=%d, D=%d): %v vs %v", k, d, gs[k-1], ws[k-1])
				}
				a, aerr := got.Solution(k, d)
				b, berr := want.Solution(k, d)
				if (aerr == nil) != (berr == nil) {
					t.Fatalf("(k=%d, D=%d): errors %v vs %v", k, d, aerr, berr)
				}
				if aerr != nil {
					continue
				}
				if a.Size() != b.Size() || math.Float64bits(a.Sum) != math.Float64bits(b.Sum) || len(a.Covered) != len(b.Covered) {
					t.Fatalf("(k=%d, D=%d): solutions differ", k, d)
				}
				for i := range a.Clusters {
					ca, cb := a.Clusters[i], b.Clusters[i]
					if ca.ID != cb.ID || len(ca.Cov) != len(cb.Cov) || math.Float64bits(ca.Sum) != math.Float64bits(cb.Sum) {
						t.Fatalf("(k=%d, D=%d): cluster %d differs", k, d, i)
					}
				}
			}
		}
	}
}
