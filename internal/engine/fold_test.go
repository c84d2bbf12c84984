package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"qagview/internal/relation"
)

// sameOutput reports whether two results rank the same rows with the same
// value bits.
func sameOutput(a, b *Result) bool {
	if !reflect.DeepEqual(a.Rows, b.Rows) || len(a.Vals) != len(b.Vals) {
		return false
	}
	for i, v := range a.Vals {
		if math.Float64bits(v) != math.Float64bits(b.Vals[i]) {
			return false
		}
	}
	return true
}

// checkFold asserts that a fold equals a full execution over the same
// generation, and that it reports a change exactly when the ranked output
// differs from the previous one.
func checkFold(t *testing.T, label string, cat Catalog, q *Query, prev *Result, f *Folded) {
	t.Helper()
	want, err := Execute(cat, q, ExecParallelism(1))
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	assertBitIdentical(t, label, want, f.Result)
	if f.Changed == sameOutput(prev, want) {
		t.Fatalf("%s: changed = %v, but the output %s the previous one", label, f.Changed, map[bool]string{true: "is", false: "differs from"}[!f.Changed])
	}
}

// foldBatch draws n rows of the fold schema: text a over a vocabulary of
// vocab values, int b, a 0/1 flag g, float x with ±0.
func foldBatch(rng *rand.Rand, n, vocab int) []relation.Column {
	a := make([]string, n)
	b := make([]int64, n)
	g := make([]int64, n)
	x := make([]float64, n)
	for i := range a {
		a[i] = fmt.Sprintf("a%d", rng.Intn(vocab))
		b[i] = int64(rng.Intn(6))
		g[i] = int64(rng.Intn(2))
		switch rng.Intn(12) {
		case 0:
			x[i] = math.Copysign(0, -1)
		case 1:
			x[i] = 0
		default:
			x[i] = math.Floor(rng.Float64()*80) / 8
		}
	}
	return []relation.Column{relation.StringCol("a", a), relation.IntCol("b", b), relation.IntCol("g", g), relation.FloatCol("x", x)}
}

// TestFoldMatchesRescan folds a run of appended batches into retained
// aggregations and checks every fold against a full execution and its
// changed flag against the previous output: batches that add groups and
// dictionary values, one the WHERE filters out entirely, a batch of
// several morsels folded in parallel, and an empty generation bump.
func TestFoldMatchesRescan(t *testing.T) {
	queries := []string{
		"select a, b, avg(x) as v from t group by a, b order by v desc",
		"select a, b, sum(x) as v from t where g = 1 group by a, b having count(*) > 2 order by v desc",
		"select a, count(*) as c from t group by a having avg(x) > 4 order by c desc limit 7",
		"select b, a, min(x) as v from t where x >= 1 group by b, a having max(x) < 9.5 and sum(b) > 3 order by v desc",
		"select a, max(x) as v from t group by a order by v desc",
	}
	for _, sql := range queries {
		q, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		rel := relation.MustFromColumns("t", foldBatch(rng, 3000, 40)...)
		res, kept, err := Retain(catalog{"t": rel}, q)
		if err != nil || kept == nil {
			t.Fatalf("%s: Retain = %v, %v", sql, kept, err)
		}
		prev := res
		for step := 0; step < 12; step++ {
			var batch []relation.Column
			par := 1
			switch step {
			case 3: // filtered out by every WHERE above
				batch = foldBatch(rng, 20, 40)
				for i := range batch[2].Int {
					batch[2].Int[i] = 0
					batch[3].Float[i] = 0.5
				}
			case 5: // several morsels, folded in parallel
				batch = foldBatch(rng, 3*morselRows+17, 45)
				par = 4
			case 8: // new dictionary values
				batch = foldBatch(rng, 64, 60)
			default:
				batch = foldBatch(rng, 64, 42)
			}
			if rel, err = rel.Append(batch); err != nil {
				t.Fatal(err)
			}
			cat := catalog{"t": rel}
			f, ok, err := kept.Fold(cat, ExecParallelism(par))
			if err != nil || !ok {
				t.Fatalf("%s step %d: Fold ok=%v err=%v", sql, step, ok, err)
			}
			if f.Rows != batch[0].Len() {
				t.Fatalf("%s step %d: folded %d rows, appended %d", sql, step, f.Rows, batch[0].Len())
			}
			checkFold(t, fmt.Sprintf("%s step %d", sql, step), cat, q, prev, f)
			prev = f.Result
		}
		// Nothing appended: an unchanged output.
		f, ok, err := kept.Fold(catalog{"t": rel})
		if err != nil || !ok || f.Changed || f.Rows != 0 {
			t.Fatalf("%s: refold of the same generation: ok=%v err=%v changed=%v rows=%d", sql, ok, err, f.Changed, f.Rows)
		}
	}
}

// TestFoldWorkFollowsBatch pins that a fold's work follows the batch, not
// the table: one 64-row batch folded into a 100,000-row and a 400,000-row
// table moves 64 rows through the pipeline at either size, by the fold's
// own count and by the scan operator's measured rows_in. Counters, not
// timings, so the check does not drift with the machine.
func TestFoldWorkFollowsBatch(t *testing.T) {
	q, err := Parse("select a, b, avg(x) as v from t group by a, b order by v desc")
	if err != nil {
		t.Fatal(err)
	}
	const batch = 64
	for _, n := range []int{100_000, 400_000} {
		rng := rand.New(rand.NewSource(int64(n)))
		rel := relation.MustFromColumns("t", foldBatch(rng, n, 40)...)
		_, kept, err := Retain(catalog{"t": rel}, q)
		if err != nil || kept == nil {
			t.Fatalf("n=%d: Retain = %v, %v", n, kept, err)
		}
		next, err := rel.Append(foldBatch(rng, batch, 40))
		if err != nil {
			t.Fatal(err)
		}
		f, ok, err := kept.Fold(catalog{"t": next}, ExecProfile(), ExecParallelism(1))
		if err != nil || !ok {
			t.Fatalf("n=%d: Fold ok=%v err=%v", n, ok, err)
		}
		scanned := int64(-1)
		for _, op := range f.Result.Profile {
			if op.Op == "scan" {
				scanned = op.RowsIn
			}
		}
		if f.Rows != batch || scanned != batch {
			t.Fatalf("n=%d: fold counted %d rows and scanned %d, want %d each\n%s", n, f.Rows, scanned, batch, f.Result.Profile)
		}
	}
}

// TestFoldRefuses pins the cases Fold hands back to a rescan, and the
// query shapes Retain does not keep: a table rebuilt from columns (same
// rows, new lineage), a sibling generation, a dictionary that outgrows its
// key field, a join, another ORDER BY, and the reference executor.
func TestFoldRefuses(t *testing.T) {
	q, err := Parse("select a, b, avg(x) as v from t group by a, b order by v desc")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	base := relation.MustFromColumns("t", foldBatch(rng, 500, 3)...)
	retain := func(rel *relation.Relation) *Retained {
		t.Helper()
		_, kept, err := Retain(catalog{"t": rel}, q)
		if err != nil || kept == nil {
			t.Fatalf("Retain = %v, %v", kept, err)
		}
		return kept
	}
	refused := func(label string, kept *Retained, rel *relation.Relation) {
		t.Helper()
		f, ok, err := kept.Fold(catalog{"t": rel})
		if err != nil || ok || f != nil {
			t.Fatalf("%s: Fold = %v, %v, %v; want refused", label, f, ok, err)
		}
	}

	rebuilt := relation.MustFromColumns("t", foldBatch(rand.New(rand.NewSource(3)), 500, 3)...)
	refused("rebuilt table", retain(base), rebuilt)

	kept := retain(base)
	first, err := base.Append(foldBatch(rng, 10, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := kept.Fold(catalog{"t": first}); !ok || err != nil {
		t.Fatalf("first successor: ok=%v err=%v", ok, err)
	}
	sibling, err := base.Append(foldBatch(rng, 10, 3))
	if err != nil {
		t.Fatal(err)
	}
	refused("sibling generation", kept, sibling)

	// a takes 3 values, a 2-bit key field. Two more take codes 3 (the
	// Star sentinel) and 4, which would spill into b's field, where
	// (fifth, 0) would pack like (a0, 1).
	narrow := relation.MustFromColumns("t", foldBatch(rand.New(rand.NewSource(5)), 500, 3)...)
	kept = retain(narrow)
	wide := foldBatch(rng, 2, 3)
	wide[0].Str[0], wide[0].Str[1] = "fourth", "fifth"
	wide[1].Int[1] = 0
	overflow, err := narrow.Append(wide)
	if err != nil {
		t.Fatal(err)
	}
	refused("codec overflow", kept, overflow)

	dim := relation.MustFromColumns("d", relation.StringCol("a", []string{"a0", "a1"}), relation.StringCol("r", []string{"x", "y"}))
	cat := catalog{"t": base, "d": dim}
	for _, sql := range []string{
		"select r, avg(x) as v from t join d on t.a = d.a group by r order by v desc",
		"select a, avg(x) as v from t group by a order by v asc",
		"select a, avg(x) as v from t group by a",
	} {
		q, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		res, kept, err := Retain(cat, q)
		want, werr := Execute(cat, q)
		if err != nil || werr != nil || kept != nil {
			t.Fatalf("%s: Retain kept=%v err=%v (execute err %v)", sql, kept, err, werr)
		}
		assertBitIdentical(t, sql, want, res)
	}
	if _, kept, err := Retain(catalog{"t": base}, q, ExecReference()); err != nil || kept != nil {
		t.Fatalf("reference executor: kept=%v err=%v", kept, err)
	}
}
