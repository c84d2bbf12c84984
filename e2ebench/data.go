package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"

	"qagview"
	"qagview/internal/movielens"
	"qagview/internal/relation"
)

// The (k, D) grid every session precomputes: k in 1..40 and D in {1, 2, 3},
// the paper-scale exploration range of its Figure 7.
const (
	kMin = 1
	kMax = 40
)

var dGrid = []int{1, 2, 3}

// starFrom is the FROM clause of the star-schema join whose result is
// bit-identical to the same query over the denormalized RatingTable.
const starFrom = "ratings JOIN users ON ratings.user_id = users.user_id JOIN movies ON ratings.movie_id = movies.movie_id"

// dataset is the benchmark's own copy of the seeded sample qagviewd loads
// with -sample movielens: the same generator and configuration, so the
// answer model sees the server's tables value for value.
type dataset struct {
	flat *relation.Relation // RatingTable, 33 columns
	star *movielens.Star    // ratings, users, movies
	db   *qagview.DB        // all four tables
}

// loadDataset generates the sample; ratings overrides the row count (0 keeps
// the MovieLens-100K default), mirroring qagviewd -sample-ratings.
func loadDataset(ratings int) (*dataset, error) {
	cfg := movielens.DefaultConfig()
	if ratings > 0 {
		cfg.Ratings = ratings
	}
	star, err := movielens.GenerateStar(cfg)
	if err != nil {
		return nil, err
	}
	flat, err := movielens.Denormalize(star)
	if err != nil {
		return nil, err
	}
	db := qagview.NewDB()
	for _, r := range append(star.Tables(), flat) {
		if err := db.Register(r); err != nil {
			return nil, err
		}
	}
	return &dataset{flat: flat, star: star, db: db}, nil
}

// aggSQL renders the paper's query template over the given FROM clause.
func aggSQL(attrs []string, from, where string, minCount int) string {
	list := strings.Join(attrs, ", ")
	q := "SELECT " + list + ", avg(rating) AS val FROM " + from
	if where != "" {
		q += " WHERE " + where
	}
	q += " GROUP BY " + list
	if minCount > 0 {
		q += fmt.Sprintf(" HAVING count(*) > %d", minCount)
	}
	return q + " ORDER BY val DESC"
}

// threshold picks the HAVING count threshold that leaves about target
// groups over RatingTable (groups whose count ties the cut-off drop out),
// the way the paper's experiments fix N.
func (d *dataset) threshold(attrs []string, where string, target int) (int, error) {
	sql := strings.Replace(aggSQL(attrs, "RatingTable", where, 0), "avg(rating)", "count(rating)", 1)
	res, err := d.db.Query(sql)
	if err != nil {
		return 0, err
	}
	if target >= res.N() {
		return 0, nil
	}
	counts := append([]float64(nil), res.Vals...)
	sort.Sort(sort.Reverse(sort.Float64Slice(counts)))
	return int(counts[target]), nil
}

// sessionSpec is one exploration session: a query, its coverage budget L,
// and the shared (k, D) grid.
type sessionSpec struct {
	SQL  string `json:"sql"`
	L    int    `json:"l"`
	KMin int    `json:"kmin"`
	KMax int    `json:"kmax"`
	Ds   []int  `json:"ds"`
}

// spec builds a paper-scale session over the first m canonical grouping
// attributes with about targetN groups; L is clamped to the group count.
func (d *dataset) spec(m, targetN, L int, from string) (sessionSpec, error) {
	attrs := movielens.GroupingAttrs[:m]
	c, err := d.threshold(attrs, "", targetN)
	if err != nil {
		return sessionSpec{}, err
	}
	return d.clampL(sessionSpec{SQL: aggSQL(attrs, from, "", c), L: L, KMin: kMin, KMax: kMax, Ds: dGrid})
}

// clampL lowers L to the query's group count (only the tiny self-test data
// has fewer groups than the paper-scale L).
func (d *dataset) clampL(s sessionSpec) (sessionSpec, error) {
	res, err := d.db.Query(s.SQL)
	if err != nil {
		return s, err
	}
	if res.N() == 0 {
		return s, fmt.Errorf("query has no groups: %s", s.SQL)
	}
	if s.L > res.N() {
		s.L = res.N()
	}
	return s, nil
}

// appendBatch is one seeded row batch for POST /v1/tables/RatingTable/rows:
// the typed columns the model appends and the rendered rows the server
// parses back to the same values.
type appendBatch struct {
	cols      []relation.Column
	rows      [][]string
	userBytes int // summed length of the rendered values
}

// newBatch samples n RatingTable rows (restricted to pick, when non-nil) and
// re-rates them: a fresh rating, hour and timestamp on otherwise existing
// rows, so every grouping value is one the dictionaries already hold.
func (d *dataset) newBatch(rng *rand.Rand, n int, pick []int) appendBatch {
	rel := d.flat
	rows := make([]int, n)
	for i := range rows {
		if pick != nil {
			rows[i] = pick[rng.Intn(len(pick))]
		} else {
			rows[i] = rng.Intn(rel.NumRows())
		}
	}
	b := appendBatch{cols: make([]relation.Column, rel.NumCols()), rows: make([][]string, n)}
	for i := range b.rows {
		b.rows[i] = make([]string, rel.NumCols())
	}
	for ci := 0; ci < rel.NumCols(); ci++ {
		src := rel.Column(ci)
		c := relation.Column{Name: src.Name, Kind: src.Kind}
		for i, r := range rows {
			var s string
			switch {
			case src.Name == "rating":
				v := float64(1 + rng.Intn(5))
				c.Float = append(c.Float, v)
				s = strconv.FormatFloat(v, 'g', -1, 64)
			case src.Name == "hourofday":
				v := int64(rng.Intn(24))
				c.Int = append(c.Int, v)
				s = strconv.FormatInt(v, 10)
			case src.Name == "ts":
				v := src.Int[r] + int64(rng.Intn(86400))
				c.Int = append(c.Int, v)
				s = strconv.FormatInt(v, 10)
			case src.Kind == relation.KindString:
				s = src.Str[r]
				c.Str = append(c.Str, s)
			case src.Kind == relation.KindInt:
				c.Int = append(c.Int, src.Int[r])
				s = strconv.FormatInt(src.Int[r], 10)
			case src.Kind == relation.KindFloat:
				c.Float = append(c.Float, src.Float[r])
				s = strconv.FormatFloat(src.Float[r], 'g', -1, 64)
			}
			b.rows[i][ci] = s
			b.userBytes += len(s)
		}
		b.cols[ci] = c
	}
	return b
}

// columnBytes is the in-memory size of a column's value slice: 8 bytes per
// int or float, one 16-byte string header per string.
func columnBytes(c *relation.Column) int {
	switch c.Kind {
	case relation.KindString:
		return 16 * len(c.Str)
	case relation.KindInt:
		return 8 * len(c.Int)
	default:
		return 8 * len(c.Float)
	}
}

// batchBytes is the in-memory size of a batch's values.
func (b *appendBatch) batchBytes() int {
	n := 0
	for i := range b.cols {
		n += columnBytes(&b.cols[i])
	}
	return n
}

// appendRows is the answer model's table after an append: a new relation
// holding rel's rows followed by the batches', in order.
func appendRows(rel *relation.Relation, batches ...appendBatch) (*relation.Relation, error) {
	cols := make([]relation.Column, rel.NumCols())
	for i := range cols {
		src := rel.Column(i)
		c := relation.Column{Name: src.Name, Kind: src.Kind}
		c.Str = slices.Clone(src.Str)
		c.Int = slices.Clone(src.Int)
		c.Float = slices.Clone(src.Float)
		for _, b := range batches {
			c.Str = append(c.Str, b.cols[i].Str...)
			c.Int = append(c.Int, b.cols[i].Int...)
			c.Float = append(c.Float, b.cols[i].Float...)
		}
		cols[i] = c
	}
	return relation.FromColumns(rel.Name(), cols...)
}
