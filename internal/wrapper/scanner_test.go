package wrapper_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/dataspace/automed/internal/iql"
	"github.com/dataspace/automed/internal/rel"
	"github.com/dataspace/automed/internal/sqlmem"
	"github.com/dataspace/automed/internal/wrapper"
)

// scanRetained drains a fresh scanner over every object of w, keeping
// every Row() value across page refills, and checks that after the
// drain the retained rows still equal Extent byte for byte: a scanner
// that reuses its page buffer must never hand out values that a later
// page overwrites.
func scanRetained(t *testing.T, w wrapper.Wrapper) {
	t.Helper()
	ss := w.(wrapper.ScanSourcer)
	ctx := context.Background()
	for _, o := range w.Schema().Objects() {
		scn, err := ss.ExtentScanner(ctx, o.Scheme.Parts())
		if err != nil {
			t.Fatalf("ExtentScanner(%s): %v", o.Scheme, err)
		}
		var rows []iql.Value
		for scn.Next(ctx) {
			rows = append(rows, scn.Row())
		}
		if err := scn.Err(); err != nil {
			t.Fatalf("scanning %s: %v", o.Scheme, err)
		}
		scn.Close()
		want, err := w.Extent(o.Scheme.Parts())
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) < 10 {
			t.Fatalf("%s scanned %d rows; the fixture must span several pages", o.Scheme, len(rows))
		}
		gotJSON, _ := json.Marshal(iql.EncodeValue(iql.BagOf(rows)))
		wantJSON, _ := json.Marshal(iql.EncodeValue(want))
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("retained rows of %s differ from Extent after the drain:\n%s\nvs\n%s", o.Scheme, gotJSON, wantJSON)
		}
	}
}

// TestSQLScannerRowsSurvivePageRefills pages 12 rows through 3-row
// LIMIT/OFFSET pages.
func TestSQLScannerRowsSurvivePageRefills(t *testing.T) {
	db := rel.NewDB("P")
	tb := db.MustCreateTable("items", []rel.Column{
		{Name: "id", Type: rel.Int},
		{Name: "name", Type: rel.String},
	}, "id")
	for i := 0; i < 12; i++ {
		tb.MustInsert(int64(i), fmt.Sprintf("item-%02d", i))
	}
	dsn := fmt.Sprintf("scanner-reuse-%d", sqlTestDSN.Add(1))
	sqlmem.Register(dsn, db)
	w, err := wrapper.NewSQL("P", wrapper.SQLConfig{Driver: sqlmem.DriverName, DSN: dsn, FetchPageRows: 3})
	if err != nil {
		t.Fatal(err)
	}
	scanRetained(t, w)
}

// TestRESTScannerRowsSurvivePageRefills follows a Link-chained backend
// serving 12 records, 3 per page.
func TestRESTScannerRowsSurvivePageRefills(t *testing.T) {
	const records, perPage = 12, 3
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		page := 0
		fmt.Sscanf(r.URL.Query().Get("page"), "%d", &page)
		var recs []map[string]any
		for i := page * perPage; i < min((page+1)*perPage, records); i++ {
			recs = append(recs, map[string]any{"id": i, "name": fmt.Sprintf("item-%02d", i)})
		}
		if (page+1)*perPage < records {
			w.Header().Set("Link", fmt.Sprintf(`</items?page=%d>; rel="next"`, page+1))
		}
		json.NewEncoder(w).Encode(recs)
	}))
	t.Cleanup(srv.Close)
	w, err := wrapper.NewREST("R", wrapper.RESTConfig{
		Endpoint:    srv.URL,
		Collections: []wrapper.RESTCollection{{Name: "items", Fields: []string{"id", "name"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	scanRetained(t, w)
}
