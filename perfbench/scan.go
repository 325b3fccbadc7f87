package main

import (
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/dataspace/automed/internal/core"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/rel"
	"github.com/dataspace/automed/internal/server"
	"github.com/dataspace/automed/internal/sqlmem"
	"github.com/dataspace/automed/internal/wrapper"
)

// scan is one large SQL source queried by one client with aggregates
// whose single generator streams (a non-equality filter or a bare
// projection): every extent is far above the scan buffer, so nothing
// is cached and each query pages the whole table through the wrapper,
// the stream pump and the evaluator's row stream.
type scan struct {
	rows int
	db   *rel.DB
	dsn  string
	qs   []string
	want [][]byte
	seq  []*request
}

func (s *scan) queries() []string { return s.qs }

// scanQueries are the workload's query set over the table items(id,
// val, tag) of source Big; each scans one object of the table.
var scanQueries = []string{
	"count([k | {k, v} <- <<big_items, val>>; v < 1])",
	"max([k | {k, v} <- <<big_items, val>>; v < 3])",
	"min([k | {k, v} <- <<big_items, val>>; v > 96])",
	"sum([v | {k, v} <- <<big_items, val>>; v < 10])",
	"count([k | {k, t} <- <<big_items, tag>>; t < 'c'])",
	"max([k | k <- <<big_items>>])",
	"count([t | {k, t} <- <<big_items, tag>>; contains(t, 'x')])",
}

func (s *scan) build(seed int64, sc scale) error {
	s.rows = sc.scanRows
	s.db = rel.NewDB("Big")
	items := s.db.MustCreateTable("items", []rel.Column{
		{Name: "id", Type: rel.Int},
		{Name: "val", Type: rel.Int},
		{Name: "tag", Type: rel.String},
	}, "id")
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5ca1))
	// The expected answers, computed from the generated rows.
	var (
		count0, maxLow, sumLow, tagLow, tagX int64
		minHigh                              int64 = -1
	)
	tag := make([]byte, 3)
	for k := 0; k < s.rows; k++ {
		v := int64(rng.IntN(100))
		for i := range tag {
			tag[i] = byte('a' + rng.IntN(26))
		}
		t := string(tag)
		items.MustInsert(int64(k), v, t)
		if v < 1 {
			count0++
		}
		if v < 3 {
			maxLow = int64(k)
		}
		if v > 96 && minHigh < 0 {
			minHigh = int64(k)
		}
		if v < 10 {
			sumLow += v
		}
		if t < "c" {
			tagLow++
		}
		if strings.Contains(t, "x") {
			tagX++
		}
	}
	s.dsn = dsnFor("scan", strconv.FormatInt(seed, 10))
	sqlmem.Register(s.dsn, s.db)
	s.qs = scanQueries
	s.want = [][]byte{
		mustEncode(iql.Int(count0)),
		mustEncode(iql.Int(maxLow)),
		mustEncode(iql.Int(minHigh)),
		mustEncode(iql.Int(sumLow)),
		mustEncode(iql.Int(tagLow)),
		mustEncode(iql.Int(int64(s.rows - 1))),
		mustEncode(iql.Int(tagX)),
	}
	// One round is one pass over the queries.
	s.seq = roundRobin(len(s.qs), sc.passes(1), seed, func(q int) *request {
		return &request{
			session:  "default",
			q:        q,
			body:     queryBody("", s.qs[q], true),
			want:     s.want[q],
			rows:     int64(s.rows),
			uncached: true,
		}
	})
	return nil
}

func (s *scan) sequence() []*request { return s.seq }

func (s *scan) setup(p poster) error {
	body := mustJSON(map[string]any{"name": "Big", "sql": map[string]any{"driver": sqlmem.DriverName, "dsn": s.dsn}})
	if _, err := mustPost(p, "/sources", body, http.StatusCreated); err != nil {
		return err
	}
	if _, err := mustPost(p, "/federate", mustJSON(map[string]any{"name": "F"}), http.StatusCreated); err != nil {
		return err
	}
	// Warm-up: the first query of the sequence, answer checked.
	return checkQuery(p, s.seq[0].body, s.seq[0].want)
}

// scanWrites are the integration steps the traced run times on its
// stack; the workload itself sends none.
func scanWrites() []writeOp {
	return []writeOp{
		intersectOp("", "I1", nil, core.Entity("<<UItem>>",
			core.From("Big", "[{'BIG', k} | k <- <<items>>]"))),
		refineOp("", "R1", nil, core.Attribute("<<UItem, val>>",
			core.From("Big", "[{'BIG', k, x} | {k, x} <- <<items, val>>]"))),
	}
}

func (s *scan) stack() (*stack, error) {
	st := &stack{srv: &inproc{h: server.New(daemonCfg()).Handler()}, igs: map[string]*core.Integrator{}}
	if err := s.setup(st.srv); err != nil {
		return nil, err
	}
	w, err := wrapper.NewSQL("Big", wrapper.SQLConfig{Driver: sqlmem.DriverName, DSN: s.dsn})
	if err != nil {
		return nil, err
	}
	st.scans = []scanTarget{{w: w, dsn: s.dsn, db: s.db}}
	ig, err := core.New(w)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if _, err := ig.Federate("F"); err != nil {
		return nil, err
	}
	st.federate = append(st.federate, time.Since(start))
	for _, op := range scanWrites() {
		if _, err := mustPost(st.srv, op.path, op.body, http.StatusCreated); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := op.apply(ig); err != nil {
			return nil, err
		}
		st.noteWrite(op, time.Since(start))
	}
	st.igs["default"] = ig
	return st, nil
}
