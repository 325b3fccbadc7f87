package main

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"github.com/dataspace/automed/internal/core"
	"github.com/dataspace/automed/internal/ispider"
	"github.com/dataspace/automed/internal/rel"
	"github.com/dataspace/automed/internal/server"
	"github.com/dataspace/automed/internal/sqlmem"
	"github.com/dataspace/automed/internal/wrapper"
)

// table1 is the paper's case study: the Pedro, gpmDB and PepSeeker
// databases served as SQL sources, federated, integrated by the
// five-step intersection plan, and queried with the seven Table 1
// priority queries round-robin by one client with no_cache. Every
// extent fits the extent memo, so after warm-up the work is
// evaluation, join indexes and rendering. With cold set, each query
// is preceded by an (untimed) extent invalidation, so every query
// re-unfolds its derivations and re-fetches through the SQL wrappers.
type table1 struct {
	cold bool

	names []string // source names, in registration order
	dbs   map[string]*rel.DB
	dsns  map[string]string
	qs    []ispider.CaseQuery
	want  [][]byte
	seq   []*request
}

func (t *table1) queries() []string {
	out := make([]string, len(t.qs))
	for i, q := range t.qs {
		out[i] = q.IQL
	}
	return out
}

func (t *table1) build(seed int64, sc scale) error {
	cfg := sc.ispider
	cfg.Seed = seed
	t.names = []string{"Pedro", "gpmDB", "PepSeeker"}
	t.dbs = map[string]*rel.DB{
		"Pedro":     ispider.BuildPedro(cfg),
		"gpmDB":     ispider.BuildGpmDB(cfg),
		"PepSeeker": ispider.BuildPepSeeker(cfg),
	}
	t.dsns = map[string]string{}
	for _, n := range t.names {
		t.dsns[n] = dsnFor("table1", n, strconv.FormatInt(seed, 10))
		sqlmem.Register(t.dsns[n], t.dbs[n])
	}

	// The answer oracle: an independent in-process integrator over
	// the same generated databases, reached without SQL.
	var ws []wrapper.Wrapper
	for _, n := range t.names {
		w, err := wrapper.NewRelational(n, t.dbs[n])
		if err != nil {
			return err
		}
		ws = append(ws, w)
	}
	ig, err := core.New(ws...)
	if err != nil {
		return err
	}
	if _, err := ig.Federate("F"); err != nil {
		return err
	}
	if err := ispider.ReplayPlan(ig, ispider.IntersectionPlan()); err != nil {
		return err
	}
	t.qs = ispider.Table1Queries()
	t.want = make([][]byte, len(t.qs))
	for i, q := range t.qs {
		res, err := ig.Query(q.IQL)
		if err != nil {
			return fmt.Errorf("oracle %s: %w", q.ID, err)
		}
		if t.want[i], err = encodeValue(res.Value); err != nil {
			return err
		}
	}
	// Round lengths give warm and cold rounds a similar few seconds.
	passes := 200
	if t.cold {
		passes = 30
	}
	t.seq = roundRobin(len(t.qs), sc.passes(passes), seed, func(q int) *request {
		return &request{
			session:    "default",
			q:          q,
			body:       queryBody("", t.qs[q].IQL, true),
			want:       t.want[q],
			invalidate: t.cold,
		}
	})
	return nil
}

func (t *table1) sequence() []*request { return t.seq }

// planBodies are the five plan steps as /intersect and /refine bodies.
func planBodies() []writeOp {
	var ops []writeOp
	for _, st := range ispider.IntersectionPlan() {
		if st.Kind == "refine" {
			ops = append(ops, refineOp("", st.Name, st.Enables, st.Refinement))
		} else {
			ops = append(ops, intersectOp("", st.Name, st.Enables, st.Mappings...))
		}
	}
	return ops
}

func (t *table1) setup(p poster) error {
	for _, n := range t.names {
		body := mustJSON(map[string]any{"name": n, "sql": map[string]any{"driver": sqlmem.DriverName, "dsn": t.dsns[n]}})
		if _, err := mustPost(p, "/sources", body, http.StatusCreated); err != nil {
			return err
		}
	}
	if _, err := mustPost(p, "/federate", mustJSON(map[string]any{"name": "F"}), http.StatusCreated); err != nil {
		return err
	}
	for _, op := range planBodies() {
		if _, err := mustPost(p, op.path, op.body, http.StatusCreated); err != nil {
			return err
		}
	}
	// Warm-up: one pass over the queries, answers checked.
	for q := range t.qs {
		if err := checkQuery(p, queryBody("", t.qs[q].IQL, true), t.want[q]); err != nil {
			return err
		}
	}
	return nil
}

// stack builds the traced run's layer stack: a second daemon set up
// in process, and a core integrator over SQL wrappers on the same
// databases, whose federation and plan steps are timed one by one.
func (t *table1) stack() (*stack, error) {
	st := &stack{srv: &inproc{h: server.New(daemonCfg()).Handler()}, igs: map[string]*core.Integrator{}}
	if err := t.setup(st.srv); err != nil {
		return nil, err
	}
	var ws []wrapper.Wrapper
	for _, n := range t.names {
		w, err := wrapper.NewSQL(n, wrapper.SQLConfig{Driver: sqlmem.DriverName, DSN: t.dsns[n]})
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
		st.scans = append(st.scans, scanTarget{w: w, dsn: t.dsns[n], db: t.dbs[n]})
	}
	ig, err := core.New(ws...)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if _, err := ig.Federate("F"); err != nil {
		return nil, err
	}
	st.federate = append(st.federate, time.Since(start))
	for _, op := range planBodies() {
		start := time.Now()
		if err := op.apply(ig); err != nil {
			return nil, err
		}
		st.noteWrite(op, time.Since(start))
	}
	st.igs["default"] = ig
	return st, nil
}
