package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"github.com/dataspace/automed/internal/server"
)

// daemon is the server under test, served on a loopback listener and
// reached through one keep-alive connection.
type daemon struct {
	hs     *http.Server
	base   string
	tr     *http.Transport
	client *http.Client
	served chan struct{}
}

func startDaemon(cfg server.Config) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(cfg)
	d := &daemon{
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base:   "http://" + ln.Addr().String(),
		served: make(chan struct{}),
		tr: &http.Transport{
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
	}
	d.client = &http.Client{Transport: d.tr, Timeout: 60 * time.Second}
	go func() {
		defer close(d.served)
		d.hs.Serve(ln)
	}()
	return d, nil
}

// close stops the listener and every connection, and waits for the
// serving goroutine to end.
func (d *daemon) close() {
	d.tr.CloseIdleConnections()
	d.hs.Close()
	<-d.served
}

// post sends one JSON body and returns the status and response body.
func (d *daemon) post(path string, body []byte) (int, []byte, error) {
	resp, err := d.client.Post(d.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// metrics reads the daemon's JSON metrics snapshot.
func (d *daemon) metrics() (server.MetricsSnapshot, error) {
	var snap server.MetricsSnapshot
	resp, err := d.client.Get(d.base + "/metrics?format=json")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("GET /metrics = %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, err
}

// mustJSON marshals request bodies built by the benchmark itself.
func mustJSON(v any) []byte {
	buf, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return buf
}
