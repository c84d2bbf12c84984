package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"qagview/internal/relation"
)

// joinGrid runs sql through the nested-loop reference and through every
// optimized combination — worker counts 1, 2, 8 × auto/hash/generic join
// paths — asserting each reproduces the reference bit for bit.
func joinGrid(t *testing.T, cat Catalog, sql string) {
	t.Helper()
	want, err := ExecuteSQL(cat, sql, ExecReference())
	if err != nil {
		t.Fatalf("reference: %v (query %s)", err, sql)
	}
	for _, par := range []int{1, 2, 8} {
		for _, mode := range []string{"auto", "hash", "generic"} {
			opts := []ExecOption{ExecParallelism(par)}
			switch mode {
			case "hash":
				opts = append(opts, ExecHashJoin())
			case "generic":
				opts = append(opts, ExecGenericJoin())
			}
			got, err := ExecuteSQL(cat, sql, opts...)
			if err != nil {
				t.Fatalf("par=%d mode=%s: %v (query %s)", par, mode, err, sql)
			}
			label := fmt.Sprintf("par=%d mode=%s query=%s", par, mode, sql)
			assertBitIdentical(t, label, want, got)
			if !reflect.DeepEqual(want.Tables, got.Tables) {
				t.Fatalf("%s: Tables = %v, want %v", label, got.Tables, want.Tables)
			}
		}
	}
}

// starCatalog is a small star schema engineered to hit the join edge cases:
// NUL bytes inside dimension values, NaN and ±0 on both sides of a float
// key, int keys past 2^53 (which collapse only under a float-domain class),
// and dangling foreign keys on both sides.
func starCatalog(nFacts int) catalog {
	rng := rand.New(rand.NewSource(7))
	nU, nI := 17, 9
	uids := make([]int64, nU)
	names := make([]string, nU)
	scores := make([]float64, nU)
	nvoc := []string{"ann", "an\x00n", "\x00", "", "bob", "cy"}
	for i := range uids {
		uids[i] = int64(i * 3) // sparse ids: some fact fks dangle
		names[i] = nvoc[rng.Intn(len(nvoc))]
		switch i % 5 {
		case 0:
			scores[i] = math.NaN()
		case 1:
			scores[i] = math.Copysign(0, -1)
		case 2:
			scores[i] = 0
		default:
			scores[i] = float64(i) / 4
		}
	}
	iids := make([]int64, nI)
	cats := make([]string, nI)
	for i := range iids {
		iids[i] = int64(i)
		cats[i] = fmt.Sprintf("c%d", i%4)
	}
	fuid := make([]int64, nFacts)
	fiid := make([]int64, nFacts)
	fkey := make([]float64, nFacts) // float fk, NaN/±0 included
	x := make([]float64, nFacts)
	big := make([]int64, nFacts)
	for i := 0; i < nFacts; i++ {
		fuid[i] = int64(rng.Intn(nU * 4)) // hits and misses
		fiid[i] = int64(rng.Intn(nI + 2))
		switch rng.Intn(8) {
		case 0:
			fkey[i] = math.NaN()
		case 1:
			fkey[i] = math.Copysign(0, -1)
		case 2:
			fkey[i] = 0
		default:
			fkey[i] = float64(rng.Intn(6))
		}
		switch rng.Intn(9) {
		case 0:
			x[i] = math.NaN()
		case 1:
			x[i] = math.Copysign(0, -1)
		default:
			x[i] = math.Floor(rng.Float64()*800) / 8
		}
		big[i] = (1 << 53) + int64(rng.Intn(4))
	}
	// fdim's float key carries NaN and ±0 so NaN=NaN matches and ±0 stay
	// distinct; bigdim's int key has 2^53-adjacent values that collapse
	// only when equated with a float column.
	fdimKey := []float64{math.NaN(), math.Copysign(0, -1), 0, 1, 2, 3, 4, 5}
	fdimTag := []string{"nan", "negzero", "zero", "one", "two", "three", "four", "five"}
	bigKey := []int64{1 << 53, (1 << 53) + 1, (1 << 53) + 2, (1 << 53) + 3}
	bigTag := []string{"b0", "b1", "b2", "b3"}
	bigF := []float64{float64(uint64(1) << 53), float64((uint64(1) << 53) + 2)}
	bigFTag := []string{"f0", "f2"}
	return catalog{
		"users": relation.MustFromColumns("users",
			relation.IntCol("uid", uids),
			relation.StringCol("name", names),
			relation.FloatCol("score", scores),
		),
		"items": relation.MustFromColumns("items",
			relation.IntCol("iid", iids),
			relation.StringCol("cat", cats),
		),
		"facts": relation.MustFromColumns("facts",
			relation.IntCol("uid", fuid),
			relation.IntCol("iid", fiid),
			relation.FloatCol("fkey", fkey),
			relation.FloatCol("x", x),
			relation.IntCol("big", big),
		),
		"fdim": relation.MustFromColumns("fdim",
			relation.FloatCol("fkey", fdimKey),
			relation.StringCol("tag", fdimTag),
		),
		"bigdim": relation.MustFromColumns("bigdim",
			relation.IntCol("bk", bigKey),
			relation.StringCol("btag", bigTag),
		),
		"bigfdim": relation.MustFromColumns("bigfdim",
			relation.FloatCol("bf", bigF),
			relation.StringCol("bftag", bigFTag),
		),
	}
}

// edgeCatalog is a random directed graph for cyclic (triangle) queries.
func edgeCatalog(nEdges, nNodes int) catalog {
	rng := rand.New(rand.NewSource(11))
	src := make([]int64, nEdges)
	dst := make([]int64, nEdges)
	w := make([]float64, nEdges)
	for i := 0; i < nEdges; i++ {
		src[i] = int64(rng.Intn(nNodes))
		dst[i] = int64(rng.Intn(nNodes))
		w[i] = math.Floor(rng.Float64()*100) / 4
	}
	return catalog{"edges": relation.MustFromColumns("edges",
		relation.IntCol("src", src),
		relation.IntCol("dst", dst),
		relation.FloatCol("w", w),
	)}
}

// TestJoinBitIdenticalStar is the core multi-table bit-identity grid over
// the synthetic star schema: binary and chain joins, qualified and
// unqualified references, value-identity float keys (NaN, ±0), int keys
// joining float columns past 2^53, WHERE/HAVING over joined columns.
func TestJoinBitIdenticalStar(t *testing.T) {
	cat := starCatalog(603)
	queries := []string{
		"select name, avg(x) as val from facts join users on facts.uid = users.uid group by name order by val desc",
		"select u.name, count(*) as c from facts f join users u on f.uid = u.uid group by u.name order by c desc",
		"select name, cat, sum(x) as val from facts f join users u on f.uid = u.uid join items i on f.iid = i.iid group by name, cat order by val desc",
		"select tag, count(*) as c from facts join fdim on facts.fkey = fdim.fkey group by tag order by c desc",
		"select tag, name, avg(x) as val from facts f join fdim d on f.fkey = d.fkey join users u on f.uid = u.uid group by tag, name order by val asc limit 10",
		"select btag, count(*) as c from facts join bigdim on facts.big = bigdim.bk group by btag order by c desc",
		"select bftag, count(*) as c from facts join bigfdim on facts.big = bigfdim.bf group by bftag order by c desc",
		"select btag, bftag, count(*) as c from facts join bigdim on facts.big = bigdim.bk join bigfdim on bigdim.bk = bigfdim.bf group by btag, bftag order by c desc",
		"select name, min(score) as val from facts f join users u on f.uid = u.uid where x >= 2.5 group by name order by val desc",
		"select name, avg(x) as val from facts f join users u on f.uid = u.uid group by name having count(*) > 3 order by val desc limit 4",
		"select u.score, count(*) as c from facts f join users u on f.uid = u.uid group by u.score order by c desc",
		"select cat, max(w.x) as val from facts w join items i on w.iid = i.iid where cat <> 'c2' group by cat order by val desc",
	}
	for _, sql := range queries {
		joinGrid(t, cat, sql)
	}
}

// TestJoinBitIdenticalCyclic pins the worst-case-optimal path against the
// reference and the forced binary plan on cyclic queries (triangles, with
// and without extra conditions), where the auto rule selects leapfrog.
func TestJoinBitIdenticalCyclic(t *testing.T) {
	cat := edgeCatalog(220, 24)
	queries := []string{
		"select e1.src, count(*) as c from edges e1 join edges e2 on e1.dst = e2.src join edges e3 on e2.dst = e3.src and e3.dst = e1.src group by e1.src order by c desc",
		"select e1.src, e2.src, count(*) as c from edges e1 join edges e2 on e1.dst = e2.src join edges e3 on e2.dst = e3.src and e3.dst = e1.src group by e1.src, e2.src order by c desc limit 15",
		"select e1.src, sum(e3.w) as val from edges e1 join edges e2 on e1.dst = e2.src join edges e3 on e2.dst = e3.src and e3.dst = e1.src group by e1.src order by val desc",
		// Acyclic self-join chains take the hash path by default; the grid
		// also forces them through leapfrog.
		"select e1.src, count(*) as c from edges e1 join edges e2 on e1.dst = e2.src group by e1.src order by c desc",
		"select e1.src, avg(e2.w) as val from edges e1 join edges e2 on e1.dst = e2.src where e1.w > 10 group by e1.src order by val desc",
	}
	for _, sql := range queries {
		joinGrid(t, cat, sql)
	}
	if res, err := ExecuteSQL(cat,
		"select e1.src, count(*) as c from edges e1 join edges e2 on e1.dst = e2.src join edges e3 on e2.dst = e3.src and e3.dst = e1.src group by e1.src order by c desc"); err != nil {
		t.Fatal(err)
	} else if !reflect.DeepEqual(res.Tables, []string{"edges"}) {
		t.Fatalf("self-join Tables = %v, want [edges]", res.Tables)
	}
}

// TestJoinEmptySides pins the degenerate shapes: an empty probe side, an
// empty build side, and a join with no matches all produce the same empty
// result on every path.
func TestJoinEmptySides(t *testing.T) {
	empty := relation.MustFromColumns("e",
		relation.IntCol("k", nil), relation.FloatCol("v", nil))
	full := relation.MustFromColumns("f",
		relation.IntCol("k", []int64{1, 2, 3}), relation.FloatCol("w", []float64{1, 2, 3}))
	disjoint := relation.MustFromColumns("d",
		relation.IntCol("k", []int64{7, 8}), relation.FloatCol("u", []float64{7, 8}))
	cat := catalog{"e": empty, "f": full, "d": disjoint}
	for _, sql := range []string{
		"select f.k, avg(w) as val from f join e on f.k = e.k group by f.k order by val desc",
		"select e.k, avg(v) as val from e join f on e.k = f.k group by e.k order by val desc",
		"select f.k, avg(w) as val from f join d on f.k = d.k group by f.k order by val desc",
	} {
		joinGrid(t, cat, sql)
	}
}

// TestJoinQualifiedSingleTable checks that qualifiers naming the FROM table
// or its alias resolve on single-table queries too.
func TestJoinQualifiedSingleTable(t *testing.T) {
	cat := ratings(t)
	for _, sql := range []string{
		"select ratings.gender, avg(ratings.rating) as val from ratings group by ratings.gender order by val desc",
		"select r.gender, avg(r.rating) as val from ratings r where r.adventure = 1 group by r.gender order by val desc",
	} {
		res, err := ExecuteSQL(cat, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if res.N() == 0 {
			t.Fatalf("%s: empty result", sql)
		}
		ref, err := ExecuteSQL(cat, sql, ExecReference())
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, sql, ref, res)
	}
	// A qualifier that names no table in scope stays an error.
	if _, err := ExecuteSQL(cat, "select z.gender, count(*) as c from ratings group by z.gender"); err == nil {
		t.Fatal("wrong qualifier on single-table query should fail")
	}
}

// TestJoinPlanErrors pins the join-specific error surface: ambiguity,
// resolution failures, invalid ON shapes, duplicate FROM names.
func TestJoinPlanErrors(t *testing.T) {
	cat := starCatalog(50)
	cases := []struct {
		sql  string
		want string
	}{
		{"select uid, count(*) as c from facts join users on facts.uid = users.uid group by uid",
			"ambiguous column"},
		{"select name, count(*) as c from facts join users on facts.uid = users.nope group by name",
			`unknown column "nope" in table "users"`},
		{"select name, count(*) as c from facts join users on zz.uid = users.uid group by name",
			`unknown table or alias "zz"`},
		{"select nope, count(*) as c from facts join users on facts.uid = users.uid group by nope",
			"tables in scope: facts, users"},
		{"select name, count(*) as c from facts join users on users.uid = users.uid group by name",
			"relates table \"users\" to itself"},
		{"select name, count(*) as c from facts f join items f on f.uid = f.iid group by name",
			"duplicate table name or alias"},
		{"select name, count(*) as c from facts join users on facts.uid = users.name group by name",
			"equates text column"},
		{"select cat, count(*) as c from facts f join users u on f.uid = u.uid join items i on u.uid = f.uid group by cat",
			`must reference the joined table`},
	}
	for _, c := range cases {
		_, err := ExecuteSQL(cat, c.sql)
		if err == nil {
			t.Fatalf("%s: expected error containing %q", c.sql, c.want)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %q does not contain %q", c.sql, err, c.want)
		}
	}
	// The ambiguity error is a distinct, testable sentinel.
	_, err := ExecuteSQL(cat, "select uid, count(*) as c from facts join users on facts.uid = users.uid group by uid")
	if !errors.Is(err, ErrAmbiguousColumn) {
		t.Fatalf("err = %v, want errors.Is ErrAmbiguousColumn", err)
	}
	// Reference and vectorized paths fail identically.
	for _, c := range cases {
		_, errRef := ExecuteSQL(cat, c.sql, ExecReference())
		_, errVec := ExecuteSQL(cat, c.sql, ExecParallelism(4))
		if fmt.Sprint(errRef) != fmt.Sprint(errVec) {
			t.Fatalf("%s: reference error %q != vectorized error %q", c.sql, errRef, errVec)
		}
	}
}

// TestJoinParse pins the parsed structure of join clauses.
func TestJoinParse(t *testing.T) {
	q, err := Parse("select name, avg(x) as val from facts f inner join users as u on f.uid = u.uid and f.k = u.k group by name")
	if err != nil {
		t.Fatal(err)
	}
	if q.Table != "facts" || q.Alias != "f" {
		t.Fatalf("From = %q/%q", q.Table, q.Alias)
	}
	if len(q.Joins) != 1 || q.Joins[0].Table != (TableRef{Table: "users", Alias: "u"}) {
		t.Fatalf("Joins = %+v", q.Joins)
	}
	if on := q.Joins[0].On; len(on) != 2 || on[0] != (JoinCond{"f.uid", "u.uid"}) || on[1] != (JoinCond{"f.k", "u.k"}) {
		t.Fatalf("On = %+v", q.Joins[0].On)
	}
	if got := q.Tables(); !reflect.DeepEqual(got, []string{"facts", "users"}) {
		t.Fatalf("Tables = %v", got)
	}
	for _, bad := range []string{
		"select a, count(*) as c from t left join u on t.a = u.a group by a",
		"select a, count(*) as c from t join u on t.a > u.a group by a",
		"select a, count(*) as c from t join u on t.a = 3 group by a",
		"select a, count(*) as c from t join u group by a",
		"select a.b.c, count(*) as c from t group by a.b.c",
		"select a, count(*) as c from t.x group by a",
		"select a, count(*) as c from t as join group by a",
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) should fail", bad)
		}
	}
}

// TestJoinContextCancel checks cancellation is observed inside every join
// algorithm.
func TestJoinContextCancel(t *testing.T) {
	cat := edgeCatalog(9000, 40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sql := "select e1.src, count(*) as c from edges e1 join edges e2 on e1.dst = e2.src join edges e3 on e2.dst = e3.src and e3.dst = e1.src group by e1.src order by c desc"
	for _, opts := range [][]ExecOption{
		{ExecReference(), ExecContext(ctx)},
		{ExecParallelism(8), ExecContext(ctx), ExecHashJoin()},
		{ExecParallelism(1), ExecContext(ctx), ExecHashJoin()},
		{ExecParallelism(1), ExecContext(ctx)}, // leapfrog
	} {
		if _, err := ExecuteSQL(cat, sql, opts...); err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	}
}
