package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gstored"
	"gstored/internal/server"
)

// httpEnv is a gstored server on a loopback listener plus the client
// the benchmark drives it with.
type httpEnv struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan struct{}
}

// startHTTP serves db with cfg; the client opens at most conns
// connections.
func startHTTP(db *gstored.DB, cfg server.Config, conns int) (*httpEnv, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &httpEnv{
		srv:    server.New(db, cfg),
		base:   "http://" + ln.Addr().String(),
		served: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	h.hs = &http.Server{Handler: h.srv, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(h.served)
		_ = h.hs.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return h, nil
}

// close stops the listener, the server's connections and worker pool,
// and waits for the serve goroutine.
func (h *httpEnv) close() {
	h.client.CloseIdleConnections()
	_ = h.hs.Close() // teardown; open requests are abandoned on purpose
	<-h.served
	h.srv.Close()
}

// query sends a SPARQL query and returns the body and X-Cache header.
func (h *httpEnv) query(ctx context.Context, text string) ([]byte, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+"/sparql?query="+url.QueryEscape(text), nil)
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("Accept", "application/sparql-results+json")
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, resp.Header.Get("X-Cache"), nil
}

// update sends a SPARQL update.
func (h *httpEnv) update(ctx context.Context, text string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+"/sparql", strings.NewReader(text))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/sparql-update")
	resp, err := h.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("update status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return nil
}

// scrape is one read of the unlabeled /metrics series.
type scrape map[string]float64

func (h *httpEnv) scrape(ctx context.Context) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := scrape{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// shipKBPerQuery is shipped bytes per engine execution between two
// scrapes, in KB.
func shipKBPerQuery(before, after scrape) float64 {
	runs := after["gstored_engine_executions_total"] - before["gstored_engine_executions_total"]
	bytes := after["gstored_shipment_bytes_total"] - before["gstored_shipment_bytes_total"]
	return safeDiv(bytes, runs) / 1024
}

// readbackPairs decodes a SPARQL JSON result of ?s ?o into "s o" pairs.
func readbackPairs(body []byte) (map[string]bool, error) {
	var doc struct {
		Results struct {
			Bindings []map[string]struct {
				Value string `json:"value"`
			} `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, err
	}
	out := map[string]bool{}
	for _, b := range doc.Results.Bindings {
		out[b["s"].Value+" "+b["o"].Value] = true
	}
	return out, nil
}

func samePairs(got, want map[string]bool) bool {
	if len(got) != len(want) {
		return false
	}
	for k := range want {
		if !got[k] {
			return false
		}
	}
	return true
}

// httpOps collects traced requests from concurrent clients.
type httpOps struct {
	mu  sync.Mutex
	ops []httpOp
}

func (h *httpOps) add(o httpOp) {
	h.mu.Lock()
	h.ops = append(h.ops, o)
	h.mu.Unlock()
}

// list returns the requests in span-ID order.
func (h *httpOps) list() []httpOp {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := append([]httpOp(nil), h.ops...)
	sort.Slice(out, func(i, j int) bool { return out[i].req < out[j].req })
	return out
}
