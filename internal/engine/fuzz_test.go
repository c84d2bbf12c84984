package engine

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"qagview/internal/relation"
)

// fuzzCatalog resolves every table name to one tiny relation, so accepted
// queries exercise the executor (WHERE, GROUP BY, HAVING, ORDER BY, LIMIT)
// against real columns; unknown columns and type mismatches must surface as
// errors, never panics.
type fuzzCatalog struct{ rel *relation.Relation }

func (c fuzzCatalog) Table(string) (*relation.Relation, error) { return c.rel, nil }

// emptyCatalog rejects every table, the exec-on-empty-catalog contract.
type emptyCatalog struct{}

func (emptyCatalog) Table(name string) (*relation.Relation, error) {
	return nil, errUnknownTable(name)
}

func errUnknownTable(name string) error {
	return &unknownTableError{name}
}

type unknownTableError struct{ name string }

func (e *unknownTableError) Error() string { return "fuzz: unknown table " + e.name }

// FuzzParse feeds arbitrary SQL through the lexer and parser, and runs every
// accepted query through the executor against both an empty catalog and a
// small populated one. The front end must never panic: malformed input,
// unknown tables/columns, and degenerate literals must all come back as
// errors.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT gender, occupation, avg(rating) AS val FROM ratings WHERE adventure = 1 AND gender != 'X' GROUP BY gender, occupation HAVING count(*) > 1 ORDER BY val DESC LIMIT 10",
		"select a, sum(x) from t group by a",
		"select a, sum(x) as v from t group by a order by v asc",
		"select a, b, min(x) as v from t where a >= 2 group by a, b having max(x) < 9 order by v desc",
		"select a, count(*) as c from t group by a order by c desc limit 0",
		"select a, avg(x) from t where s = 'it''s' group by a",
		"select a, sum(x) from t where a < -1.5e3 group by a",
		"SELECT",
		"select from t group by a",
		"select a, sum(*) from t group by a",
		"select a, sum(x) from t where a ~ 3 group by a",
		"select a, sum(x) from t where a = 'oops group by a",
		"select a, sum(x), avg(y) from t group by a",
		"select a, sum(x) from t group by a limit -3",
		"\x00\xff(*)',",
		"select a, sum(x) from t group by a having count(*) > 184467440737095516150",
		"select a, count(gender) as c from ratings group by a",
		"select a, sum(rating) as v from ratings group by a having count(gender) > 0",
		"select u.a, avg(x) as v from t join u on t.a = u.a group by u.a",
		"SELECT r.gender, avg(r.rating) AS val FROM ratings r JOIN users u ON r.a = u.a JOIN movies m ON r.a = m.a GROUP BY r.gender",
		"select a, sum(x) from t join u on t.a = u.a and u.b = t.b group by a",
		"select a, sum(x) from t join t on t.a = t.a group by a",
		"select a, sum(x) from t join u group by a",
		"select a, sum(x) from t join u on t.a = 3 group by a",
		"select a, sum(x) from t join u on a = u.a group by a",
		"select q.a, sum(x) from t join u on t.a = u.a group by q.a",
		"select t.a.b, sum(x) from t join u on t.a = u.a group by t.a.b",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	rel, err := relation.FromColumns("ratings",
		relation.StringCol("a", []string{"x", "y", "x", "z"}),
		relation.StringCol("gender", []string{"M", "F", "M", "F"}),
		relation.IntCol("adventure", []int64{1, 0, 1, 1}),
		relation.FloatCol("rating", []float64{5, 3, 4, 2}),
	)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		q, err := Parse(sql)
		if err != nil {
			if q != nil {
				t.Fatalf("Parse returned both a query and an error for %q", sql)
			}
			return
		}
		if q == nil {
			t.Fatalf("Parse returned neither a query nor an error for %q", sql)
		}
		// Accepted queries must round-trip through execution without
		// crashing, on an empty catalog and on a populated one.
		if _, err := Execute(emptyCatalog{}, q); err == nil {
			t.Fatalf("Execute on empty catalog succeeded for %q", sql)
		}
		_, _ = Execute(fuzzCatalog{rel}, q)
		// The combined entry point must agree with Parse on acceptance.
		_, _ = ExecuteSQL(fuzzCatalog{rel}, sql)
	})
}

// fuzzExecCatalog is the multi-table catalog for FuzzExec: a fact table
// reachable as both "t" and "ratings" (the single-table seeds use either), a
// string-keyed dimension sharing key values with the fact's "a" column, a
// float-keyed dimension whose keys include NaN and -0, a tiny edge table so
// fuzzed self-joins can form cyclic graphs and reach the leapfrog path, and
// a wide table whose columns need multi-word keys.
func fuzzExecCatalog(f *testing.F) catalog {
	f.Helper()
	fact, err := relation.FromColumns("ratings",
		relation.StringCol("a", []string{"x", "y\x00", "x", "\x00y", "", "y\x00"}),
		relation.StringCol("gender", []string{"M", "F", "M", "F", "F", "M"}),
		relation.IntCol("adventure", []int64{1, 0, 1, 1, 0, 1}),
		relation.FloatCol("rating", []float64{5, math.NaN(), 4, math.Copysign(0, -1), 0, 4}),
	)
	if err != nil {
		f.Fatal(err)
	}
	dim, err := relation.FromColumns("dim",
		relation.StringCol("a", []string{"x", "\x00y", "z", ""}),
		relation.StringCol("region", []string{"east", "west", "east", "north"}),
	)
	if err != nil {
		f.Fatal(err)
	}
	fdim, err := relation.FromColumns("fdim",
		relation.FloatCol("rating", []float64{5, math.NaN(), math.Copysign(0, -1), 0, 4}),
		relation.IntCol("stars", []int64{2, -1, 0, 0, 1}),
	)
	if err != nil {
		f.Fatal(err)
	}
	edges, err := relation.FromColumns("edges",
		relation.IntCol("src", []int64{1, 2, 3, 1, 2, 4}),
		relation.IntCol("dst", []int64{2, 3, 1, 3, 4, 1}),
	)
	if err != nil {
		f.Fatal(err)
	}
	// wide has twelve columns w0..w11 (int, string and float in turn) of 41
	// distinct values each: 6-bit key fields, ten to a word, so grouping or
	// joining on eleven of them needs two key words. Rows i and i+41 agree on
	// every column, so wide self-joins match more than the diagonal.
	const wideRows, wideCols = 48, 12
	cols := make([]relation.Column, wideCols)
	for k := range cols {
		name := fmt.Sprintf("w%d", k)
		vals := make([]int64, wideRows)
		for i := range vals {
			vals[i] = int64((i*(3+2*k) + k) % 41)
		}
		switch k % 3 {
		case 0:
			cols[k] = relation.IntCol(name, vals)
		case 1:
			strs := make([]string, wideRows)
			for i, v := range vals {
				strs[i] = fmt.Sprintf("s\x00%d", v)
			}
			cols[k] = relation.StringCol(name, strs)
		default:
			fl := make([]float64, wideRows)
			for i, v := range vals {
				fl[i] = float64(v) / 2
			}
			cols[k] = relation.FloatCol(name, fl)
		}
	}
	wide, err := relation.FromColumns("wide", cols...)
	if err != nil {
		f.Fatal(err)
	}
	return catalog{"t": fact, "ratings": fact, "dim": dim, "fdim": fdim, "edges": edges, "wide": wide}
}

// FuzzExec is the differential fuzzer for the executors: every accepted
// query runs through the row-at-a-time (nested-loop) reference and through
// the vectorized pipeline at several worker counts and on every join
// strategy, and all of them must agree bit for bit (or all fail with the
// same error). The fuzz relations include NUL-bearing strings, NaN, and -0
// to stress the key encodings, the catalog has joinable dimension/edge
// tables so fuzzed FROM clauses exercise the hash and worst-case-optimal
// join paths against the nested-loop reference, and its wide table drives
// group and join keys past one word.
func FuzzExec(f *testing.F) {
	seeds := []string{
		"SELECT gender, occupation, avg(rating) AS val FROM ratings WHERE adventure = 1 AND gender != 'X' GROUP BY gender, occupation HAVING count(*) > 1 ORDER BY val DESC LIMIT 10",
		"select a, sum(rating) as v from t group by a order by v asc",
		"select a, gender, min(rating) as v from t where adventure >= 1 group by a, gender having max(rating) < 9 order by v desc",
		"select a, count(*) as c from t group by a order by c desc limit 1",
		"select rating, count(*) as c from t group by rating order by c desc",
		"select a, a, avg(adventure) as v from t group by a, a order by v desc",
		"select region, avg(rating) as v from t join dim on t.a = dim.a group by region order by v desc",
		"select region, gender, count(*) as c from t join dim on t.a = dim.a group by region, gender order by c desc",
		"select region, sum(stars) as v from t join dim on t.a = dim.a join fdim on t.rating = fdim.rating group by region order by v desc",
		"select stars, count(*) as c from t join fdim on t.rating = fdim.rating group by stars",
		"select e1.src, count(*) as c from edges e1 join e2 on e1.dst = e2.src group by e1.src",
		"select e1.src, count(*) as c from edges e1 join edges e2 on e1.dst = e2.src join edges e3 on e2.dst = e3.src and e3.dst = e1.src group by e1.src order by c desc",
		"select d1.region, d2.region, count(*) as c from dim d1 join dim d2 on d1.a = d2.a group by d1.region, d2.region",
		"select w0, w1, w2, w3, w4, w5, w6, w7, w8, w9, w10, count(*) as c from wide group by w0, w1, w2, w3, w4, w5, w6, w7, w8, w9, w10 order by c desc",
		"select w1, w4, w7, w10, w2, w5, w8, w11, w0, w3, w6, avg(w9) as v from wide where w9 > 3 group by w1, w4, w7, w10, w2, w5, w8, w11, w0, w3, w6 having count(*) > 0 order by v desc limit 5",
		"select x.w0, y.w11, count(*) as c from wide x join wide y on x.w0 = y.w0 and x.w1 = y.w1 and x.w2 = y.w2 and x.w3 = y.w3 and x.w4 = y.w4 and x.w5 = y.w5 and x.w6 = y.w6 and x.w7 = y.w7 and x.w8 = y.w8 and x.w9 = y.w9 and x.w10 = y.w10 group by x.w0, y.w11 order by c desc",
		"select x.w2, sum(z.w3) as v from wide x join wide y on x.w11 = y.w11 and x.w10 = y.w10 and x.w9 = y.w9 and x.w8 = y.w8 and x.w7 = y.w7 and x.w6 = y.w6 and x.w5 = y.w5 and x.w4 = y.w4 and x.w3 = y.w3 and x.w2 = y.w2 and x.w1 = y.w1 join wide z on y.w1 = z.w1 group by x.w2 order by v desc",
		// WHERE pushed below the join: on a build-side table, on join-key
		// columns (text, and the float keys with NaN and -0 on both sides),
		// selecting no row of one table, and on a cyclic join so the
		// leapfrog tries see selections.
		"select region, gender, avg(rating) as v from t join dim on t.a = dim.a where region = 'east' group by region, gender order by v desc",
		"select region, count(*) as c from t join dim on t.a = dim.a where dim.a <> 'x' and t.a <> '' group by region order by c desc",
		"select stars, gender, sum(t.rating) as v from t join fdim on t.rating = fdim.rating where fdim.rating <> 5 group by stars, gender order by v desc",
		"select stars, count(*) as c from t join fdim on t.rating = fdim.rating where t.rating = 0 and fdim.rating <= 0 group by stars",
		"select region, count(*) as c from t join dim on t.a = dim.a where region = 'nowhere' group by region",
		"select e1.src, e2.dst, count(*) as c from edges e1 join edges e2 on e1.dst = e2.src join edges e3 on e2.dst = e3.src and e3.dst = e1.src where e2.src > 1 and e3.dst <> 4 group by e1.src, e2.dst order by c desc",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	cat := fuzzExecCatalog(f)
	joinModes := []struct {
		name string
		opt  []ExecOption
	}{
		{"auto", nil},
		{"hash", []ExecOption{ExecHashJoin()}},
		{"generic", []ExecOption{ExecGenericJoin()}},
	}
	f.Fuzz(func(t *testing.T, sql string) {
		q, err := Parse(sql)
		if err != nil {
			return
		}
		want, refErr := Execute(cat, q, ExecReference())
		for _, par := range []int{1, 8} {
			for _, mode := range joinModes {
				opts := append([]ExecOption{ExecParallelism(par)}, mode.opt...)
				got, err := Execute(cat, q, opts...)
				if (err == nil) != (refErr == nil) {
					t.Fatalf("par=%d join=%s: err = %v, reference err = %v (query %q)", par, mode.name, err, refErr, sql)
				}
				if err != nil {
					if err.Error() != refErr.Error() {
						t.Fatalf("par=%d join=%s: err %q, reference err %q (query %q)", par, mode.name, err, refErr, sql)
					}
					continue
				}
				if !reflect.DeepEqual(want.GroupBy, got.GroupBy) || want.ValName != got.ValName ||
					want.Table != got.Table || !reflect.DeepEqual(want.Tables, got.Tables) ||
					!reflect.DeepEqual(want.Rows, got.Rows) {
					t.Fatalf("par=%d join=%s: result mismatch for %q:\nwant %+v\ngot  %+v", par, mode.name, sql, want, got)
				}
				if len(want.Vals) != len(got.Vals) {
					t.Fatalf("par=%d join=%s: %d vals, want %d (query %q)", par, mode.name, len(got.Vals), len(want.Vals), sql)
				}
				for i := range want.Vals {
					if math.Float64bits(want.Vals[i]) != math.Float64bits(got.Vals[i]) {
						t.Fatalf("par=%d join=%s: val[%d] bits differ: %v vs %v (query %q)", par, mode.name, i, got.Vals[i], want.Vals[i], sql)
					}
				}
			}
		}
		if refErr == nil {
			checkFoldSplit(t, cat, q, sql)
		}
	})
}

// checkFoldSplit runs a foldable single-table query split at a row derived
// from its text: the retained aggregation is seeded on the table's first r
// rows, the rest are appended, and the fold must equal a full execution
// and report a change exactly when its output differs from the seed's.
func checkFoldSplit(t *testing.T, cat catalog, q *Query, sql string) {
	full, ok := cat[q.Table]
	if !ok || len(q.Joins) > 0 {
		return
	}
	r := len(sql) % (full.NumRows() + 1)
	head := make([]relation.Column, full.NumCols())
	tail := make([]relation.Column, full.NumCols())
	for c := range head {
		col := full.Column(c)
		head[c], tail[c] = *col, *col
		head[c].Str, head[c].Int, head[c].Float = nil, nil, nil
		switch col.Kind {
		case relation.KindString:
			head[c].Str = append([]string{}, col.Str[:r]...)
			tail[c].Str = col.Str[r:]
		case relation.KindInt:
			head[c].Int = append([]int64{}, col.Int[:r]...)
			tail[c].Int = col.Int[r:]
		default:
			head[c].Float = append([]float64{}, col.Float[:r]...)
			tail[c].Float = col.Float[r:]
		}
	}
	seedRel := relation.MustFromColumns(full.Name(), head...)
	seedCat := catalog{q.Table: seedRel}
	seed, kept, err := Retain(seedCat, q)
	if err != nil || kept == nil {
		return
	}
	rel, err := seedRel.Append(tail)
	if err != nil {
		t.Fatal(err)
	}
	foldCat := catalog{q.Table: rel}
	f, ok, err := kept.Fold(foldCat)
	if err != nil {
		t.Fatalf("fold at row %d: %v (query %q)", r, err, sql)
	}
	if ok {
		checkFold(t, fmt.Sprintf("fold at row %d (query %q)", r, sql), foldCat, q, seed, f)
	}
}
