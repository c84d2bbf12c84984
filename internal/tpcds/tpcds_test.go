package tpcds

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"qagview/internal/engine"
	"qagview/internal/relation"
)

type catalog map[string]*relation.Relation

func (c catalog) Table(name string) (*relation.Relation, error) {
	r, ok := c[name]
	if !ok {
		return nil, fmt.Errorf("no table %q", name)
	}
	return r, nil
}

func TestGenerateShape(t *testing.T) {
	r, err := Generate(Config{Rows: 5000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != 5000 {
		t.Errorf("rows = %d", r.NumRows())
	}
	if r.NumCols() != 23 {
		t.Errorf("cols = %d, want 23 (paper's store_sales width)", r.NumCols())
	}
	if _, err := Generate(Config{Rows: 0}); err == nil {
		t.Error("zero rows accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Config{Rows: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{Rows: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for col := 0; col < a.NumCols(); col++ {
		for row := 0; row < a.NumRows(); row++ {
			if a.StringAt(col, row) != b.StringAt(col, row) {
				t.Fatalf("nondeterministic at (%d,%d)", col, row)
			}
		}
	}
}

func TestAggregateQueryRuns(t *testing.T) {
	r, err := Generate(Config{Rows: 50_000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	q, err := Query(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.ExecuteSQL(catalog{"store_sales": r}, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.N() < 100 {
		t.Errorf("only %d groups from m=4 query", res.N())
	}
	for i := 1; i < res.N(); i++ {
		if res.Vals[i] > res.Vals[i-1] {
			t.Fatal("not sorted descending")
		}
	}
}

func TestPlantedProfitStructure(t *testing.T) {
	r, err := Generate(Config{Rows: 100_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.ExecuteSQL(catalog{"store_sales": r}, `SELECT i_category, cd_education, cd_credit_rating, avg(net_profit) AS val
		FROM store_sales GROUP BY i_category, cd_education, cd_credit_rating
		HAVING count(*) > 50 ORDER BY val DESC`)
	if err != nil {
		t.Fatal(err)
	}
	// The top group should reflect the planted high-profit stratum.
	top := res.Rows[0]
	if !(top[0] == "electronics" || top[0] == "jewelry") || top[1] != "advanced" || top[2] != "good" {
		t.Errorf("top group = %v, planted structure not dominant", top)
	}
	// Loss-leader books/low-credit should rank near the bottom.
	for i := 0; i < res.N()/4; i++ {
		if res.Rows[i][0] == "books" && res.Rows[i][2] == "low" {
			t.Errorf("books/low-credit in top quartile at rank %d", i+1)
		}
	}
}

func TestQueryTemplate(t *testing.T) {
	q, err := Query(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"cd_gender, cd_marital_status, cd_education", "avg(net_profit)", "HAVING count(*) > 10"} {
		if !strings.Contains(q, frag) {
			t.Errorf("query missing %q: %s", frag, q)
		}
	}
	if _, err := Query(0, 1); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := Query(99, 1); err == nil {
		t.Error("huge m accepted")
	}
}

// TestStarJoinMatchesFlat pins the star-schema loader property: the
// four-dimension join over the base tables reproduces the flat store_sales
// aggregates bit for bit, on the reference, hash, and generic join paths.
func TestStarJoinMatchesFlat(t *testing.T) {
	cfg := Config{Rows: 400, Seed: 5}
	star, err := GenerateStar(cfg)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	flatCat := catalog{"store_sales": flat}
	starCat := catalog{}
	for _, r := range star.Tables() {
		starCat[r.Name()] = r
	}
	for _, m := range []int{3, 6} {
		fq, err := Query(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		jq, err := JoinQuery(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := engine.ExecuteSQL(flatCat, fq)
		if err != nil {
			t.Fatal(err)
		}
		if want.N() == 0 {
			t.Fatalf("flat query m=%d returned no groups", m)
		}
		for i, opts := range [][]engine.ExecOption{
			{engine.ExecReference()},
			{engine.ExecParallelism(1)},
			{engine.ExecParallelism(8)},
			{engine.ExecParallelism(2), engine.ExecGenericJoin()},
		} {
			got, err := engine.ExecuteSQL(starCat, jq, opts...)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("m=%d case=%d", m, i)
			if !reflect.DeepEqual(want.GroupBy, got.GroupBy) || want.ValName != got.ValName {
				t.Fatalf("%s: header mismatch", label)
			}
			if !reflect.DeepEqual(want.Rows, got.Rows) {
				t.Fatalf("%s: rows mismatch:\nwant %v\ngot  %v", label, want.Rows, got.Rows)
			}
			if len(want.Vals) != len(got.Vals) {
				t.Fatalf("%s: %d vals, want %d", label, len(got.Vals), len(want.Vals))
			}
			for k := range want.Vals {
				if math.Float64bits(want.Vals[k]) != math.Float64bits(got.Vals[k]) {
					t.Fatalf("%s: val[%d] bits differ: %v vs %v", label, k, want.Vals[k], got.Vals[k])
				}
			}
		}
	}
}

// TestStarSurrogateKeys checks the fact's surrogate keys land on dimension
// rows carrying exactly the drawn attribute values.
func TestStarSurrogateKeys(t *testing.T) {
	cfg := Config{Rows: 200, Seed: 9}
	star, err := GenerateStar(cfg)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sk, _ := star.Fact.ColumnByName("ss_item_sk")
	cat, _ := star.Item.ColumnByName("i_category")
	want, _ := flat.ColumnByName("i_category")
	for i := range sk.Int {
		if got := cat.Str[sk.Int[i]-1]; got != want.Str[i] {
			t.Fatalf("row %d: item sk %d has category %q, flat has %q", i, sk.Int[i], got, want.Str[i])
		}
	}
}
