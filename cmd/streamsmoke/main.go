// Command streamsmoke is the CI gate for the streaming extent
// pipeline's bounded-memory guarantee: it boots the daemon's server
// in-process, registers a sqlmem-backed SQL source holding over a
// million rows, runs a filtering aggregate over it through POST
// /query, and fails when the process's live heap grows by more than a
// small fixed ceiling — materialising the extent would cost hundreds
// of megabytes, a streamed scan a few. The ceiling bounds both the
// peak live heap sampled while the queries run and the live heap after
// a collection once they are done. Exit status is the verdict; output
// is only diagnostic (it also reports the scan rate in rows/s).
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"github.com/dataspace/automed/internal/rel"
	"github.com/dataspace/automed/internal/server"
	"github.com/dataspace/automed/internal/sqlmem"
)

const (
	// rows is comfortably above any plausible scan buffer, so a flat
	// heap can only mean the extent streamed.
	rows = 1_200_000
	// heapCeiling bounds the live-heap growth the queries may cause.
	// The 1.2M-row extent materialises to well over 150 MB of iql
	// values; a streamed scan keeps a few pages resident.
	heapCeiling = 64 << 20
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "streamsmoke:", err)
		os.Exit(1)
	}
	fmt.Println("streamsmoke: ok")
}

func run() error {
	// The "remote" database lives in this process (sqlmem stands in
	// for a DB server), so it is built before the heap baseline: its
	// rows are the backend's memory, not the query pipeline's.
	db := rel.NewDB("Big")
	items := db.MustCreateTable("items", []rel.Column{
		{Name: "id", Type: rel.Int},
		{Name: "val", Type: rel.Int},
	}, "id")
	for i := 0; i < rows; i++ {
		items.MustInsert(int64(i), int64(i%100))
	}
	const dsn = "streamsmoke-big"
	sqlmem.Register(dsn, db)

	srv := server.New(server.DefaultConfig())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()

	if err := post(base+"/sources", map[string]any{
		"name": "Big",
		"sql":  map[string]any{"driver": sqlmem.DriverName, "dsn": dsn},
	}, http.StatusCreated, nil); err != nil {
		return err
	}
	if err := post(base+"/federate", map[string]any{}, http.StatusCreated, nil); err != nil {
		return err
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	heapBase := heapLive()
	peak := watchHeap()
	start := time.Now()

	// A non-equality filter keeps the planner off the const-key index
	// path (which would materialise); the federated name is a bare
	// rename of the source object, which the stream resolver chases.
	// 12000 matches prove the scan actually visited every hundredth of
	// the 1.2M rows.
	const q = `count([k | {k, v} <- <<big_items, val>>; v < 1])`
	for i := 0; i < 2; i++ {
		var resp struct {
			Value any `json:"value"`
		}
		if err := post(base+"/query", map[string]any{"query": q}, http.StatusOK, &resp); err != nil {
			return err
		}
		n, ok := resp.Value.(float64)
		if !ok || int(n) != rows/100 {
			return fmt.Errorf("query %d: count = %v, want %d", i, resp.Value, rows/100)
		}
	}

	elapsed := time.Since(start)
	peakGrowth := int64(peak()) - int64(heapBase)

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	fmt.Printf("streamsmoke: %d rows scanned twice at %.0f rows/s, live heap growth %.1f MB peak, %.1f MB after GC (ceiling %d MB)\n",
		rows, 2*rows/elapsed.Seconds(), float64(peakGrowth)/(1<<20), float64(growth)/(1<<20), heapCeiling>>20)
	if peakGrowth > heapCeiling {
		return fmt.Errorf("live heap peaked %d bytes above its baseline during a %d-row streamed scan (ceiling %d); the scan holds too many rows at once",
			peakGrowth, rows, int64(heapCeiling))
	}
	if growth > heapCeiling {
		return fmt.Errorf("live heap grew %d bytes over a %d-row streamed scan (ceiling %d); the extent was likely materialised",
			growth, rows, int64(heapCeiling))
	}
	return nil
}

// heapLive reads the live heap as of the last completed collection.
func heapLive() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// watchHeap samples the live heap every millisecond until the returned
// function is called, which stops the sampler and returns the peak.
func watchHeap() func() uint64 {
	var peak uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			peak = max(peak, heapLive())
			select {
			case <-tick.C:
			case <-stop:
				return
			}
		}
	}()
	return func() uint64 {
		close(stop)
		wg.Wait()
		return max(peak, heapLive())
	}
}

func post(url string, body any, want int, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != want {
		return fmt.Errorf("POST %s = %d, want %d (%s)", url, resp.StatusCode, want, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("POST %s: decoding response: %w", url, err)
		}
	}
	return nil
}
