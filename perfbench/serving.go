package main

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"

	"github.com/dataspace/automed/internal/core"
	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/rel"
	"github.com/dataspace/automed/internal/server"
	"github.com/dataspace/automed/internal/sqlmem"
	"github.com/dataspace/automed/internal/wrapper"
)

// serving is many sessions of cheap requests with writes beside the
// reads: each session federates two small inline sources (a library's
// books and a shop's items), session popularity is zipf-skewed, and
// one client sends a mix of result-cacheable queries, no_cache
// re-evaluations and integration writes with fresh targets.
type serving struct {
	sessions []*servSession
	seq      []*request
	scanDSN  string
	scanDB   *rel.DB
}

// servSession is one session's generated sources and expected answers.
type servSession struct {
	name       string
	want       [][]byte
	lib, shop  *rel.DB
	sourceBody [2][]byte
}

const (
	// servingSeqLen is the client's requests per round.
	servingSeqLen = 16384
	zipfS         = 1.2
	// Shares of the request mix; the rest are result-cacheable
	// queries.
	writeShare   = 0.05
	noCacheShare = 0.20
)

// servingQueries are the workload's query set over each session's
// federated sources.
var servingQueries = []string{
	"count(<<library_books>>)",
	"count(<<shop_items>>)",
	"count(<<library_books, title>>)",
	"max([x | {k, x} <- <<shop_items, price>>])",
	"count([{k1, k2} | {k1, x1} <- <<library_books, isbn>>; {k2, x2} <- <<shop_items, barcode>>; x1 = x2])",
	"count([k | {k, x} <- <<shop_items, price>>; x < 50.0])",
	"sum([k | k <- <<library_books>>])",
}

func (s *serving) queries() []string { return servingQueries }

func (s *serving) build(seed int64, sc scale) error {
	s.sessions = make([]*servSession, sc.sessions)
	for i := range s.sessions {
		s.sessions[i] = newServSession(seed, i, sc.sessionRows)
	}
	s.seq = s.clientSequence(seed, sc.passes(servingSeqLen))
	// The wrapper and sqlmem layers are timed over the first session's
	// rows served through SQL.
	s.scanDB = rel.NewDB("Serving")
	copyTables(s.scanDB, s.sessions[0].lib, s.sessions[0].shop)
	s.scanDSN = dsnFor("serving", strconv.FormatInt(seed, 10))
	sqlmem.Register(s.scanDSN, s.scanDB)
	return nil
}

func newServSession(seed int64, i, rows int) *servSession {
	rng := rand.New(rand.NewPCG(uint64(seed), uint64(i)))
	ss := &servSession{name: fmt.Sprintf("s%03d", i), lib: rel.NewDB("Library"), shop: rel.NewDB("Shop")}
	books := ss.lib.MustCreateTable("books", []rel.Column{
		{Name: "id", Type: rel.Int}, {Name: "isbn", Type: rel.String}, {Name: "title", Type: rel.String},
	}, "id")
	items := ss.shop.MustCreateTable("items", []rel.Column{
		{Name: "sku", Type: rel.String}, {Name: "barcode", Type: rel.String}, {Name: "price", Type: rel.Float},
	}, "sku")
	isbn := func() string { return fmt.Sprintf("978-%d-%d", i, rng.IntN(2*rows)) }
	var maxPrice float64
	var cheap, idSum int64
	barcodes := map[string]int64{}
	for r := 0; r < rows; r++ {
		books.MustInsert(int64(r), isbn(), fmt.Sprintf("Book %d", r))
		price := float64(rng.IntN(10000)) / 100
		bc := isbn()
		items.MustInsert(fmt.Sprintf("S%d", r), bc, price)
		barcodes[bc]++
		maxPrice = max(maxPrice, price)
		if price < 50 {
			cheap++
		}
		idSum += int64(r)
	}
	var matches int64
	for _, b := range books.Rows() {
		matches += barcodes[b[1].(string)]
	}
	n := iql.Int(int64(rows))
	ss.want = [][]byte{
		mustEncode(n), mustEncode(n), mustEncode(n),
		mustEncode(iql.Float(maxPrice)),
		mustEncode(iql.Int(matches)),
		mustEncode(iql.Int(cheap)),
		mustEncode(iql.Int(idSum)),
	}
	ss.sourceBody = [2][]byte{
		mustJSON(map[string]any{"session": ss.name, "name": "Library", "tables": []map[string]any{
			{"name": "books", "columns": []string{"id:int", "isbn", "title"}, "rows": books.Rows()}}}),
		mustJSON(map[string]any{"session": ss.name, "name": "Shop", "tables": []map[string]any{
			{"name": "items", "columns": []string{"sku", "barcode", "price:float"}, "rows": items.Rows()}}}),
	}
	return ss
}

func copyTables(dst *rel.DB, srcs ...*rel.DB) {
	for _, src := range srcs {
		for _, t := range src.Tables() {
			nt := dst.MustCreateTable(t.Name(), t.Columns(), t.PrimaryKey())
			for _, row := range t.Rows() {
				nt.MustInsert(row...)
			}
		}
	}
}

// clientSequence draws the client's request mix: zipf-popular
// sessions, uniform query shapes, and writes that alternate
// /intersect and /refine.
func (s *serving) clientSequence(seed int64, n int) []*request {
	rng := rand.New(rand.NewPCG(uint64(seed), 0xc11e))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(s.sessions)-1))
	seq := make([]*request, n)
	writes := 0
	for i := range seq {
		ss := s.sessions[zipf.Uint64()]
		r := rng.Float64()
		switch {
		case r < writeShare:
			seq[i] = &request{session: ss.name, q: -1, write: servingWrite(ss.name, writes%2 == 1)}
			writes++
		default:
			q := rng.IntN(len(servingQueries))
			seq[i] = &request{
				session: ss.name,
				q:       q,
				body:    queryBody(ss.name, servingQueries[q], r < writeShare+noCacheShare),
				want:    ss.want[q],
			}
		}
	}
	return seq
}

// servingWrite builds the n-th write of a run on one session: an
// intersection or a refinement, each with a fresh target.
func servingWrite(session string, refine bool) func(n uint64) writeOp {
	return func(n uint64) writeOp {
		if refine {
			return refineOp(session, fmt.Sprintf("R%d", n), nil, core.Entity(fmt.Sprintf("<<Title%d>>", n),
				core.From("Library", "[k | k <- <<books>>]")))
		}
		return intersectOp(session, fmt.Sprintf("I%d", n), nil, core.Entity(fmt.Sprintf("<<UBook%d>>", n),
			core.From("Library", "[{'LIB', k} | k <- <<books>>]"),
			core.From("Shop", "[{'SHOP', k} | k <- <<items>>]")))
	}
}

func (s *serving) sequence() []*request { return s.seq }

func (s *serving) setup(p poster) error {
	for _, ss := range s.sessions {
		for _, body := range ss.sourceBody {
			if _, err := mustPost(p, "/sources", body, http.StatusCreated); err != nil {
				return err
			}
		}
		if _, err := mustPost(p, "/federate", mustJSON(map[string]any{"session": ss.name, "name": "F"}), http.StatusCreated); err != nil {
			return err
		}
	}
	// Warm-up: one cacheable query per session, answer checked.
	for _, ss := range s.sessions {
		if err := checkQuery(p, queryBody(ss.name, servingQueries[0], false), ss.want[0]); err != nil {
			return err
		}
	}
	return nil
}

// stack sets up a second daemon in process, and one core integrator
// per session over the same rows, timing each federation.
func (s *serving) stack() (*stack, error) {
	st := &stack{srv: &inproc{h: server.New(daemonCfg()).Handler()}, igs: map[string]*core.Integrator{}}
	if err := s.setup(st.srv); err != nil {
		return nil, err
	}
	for _, ss := range s.sessions {
		lib, err := wrapper.NewRelational("Library", ss.lib)
		if err != nil {
			return nil, err
		}
		shop, err := wrapper.NewRelational("Shop", ss.shop)
		if err != nil {
			return nil, err
		}
		ig, err := core.New(lib, shop)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := ig.Federate("F"); err != nil {
			return nil, err
		}
		st.federate = append(st.federate, time.Since(start))
		st.igs[ss.name] = ig
	}
	w, err := wrapper.NewSQL("Serving", wrapper.SQLConfig{Driver: sqlmem.DriverName, DSN: s.scanDSN})
	if err != nil {
		return nil, err
	}
	st.scans = []scanTarget{{w: w, dsn: s.scanDSN, db: s.scanDB}}
	return st, nil
}
