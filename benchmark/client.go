package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/service"
)

// client speaks the /v1 wire format (service's own exported wire types)
// over a fixed number of keep-alive connections.
type client struct {
	http *http.Client
	base string
}

func newClient(base string, conns int) *client {
	return &client{base: base, http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
	}}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and hands the 200 response body to read.
func (c *client) do(method, path string, req any, read func(io.Reader) error) error {
	var body io.Reader
	if req != nil {
		b, err := json.Marshal(req)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	hr, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return err
	}
	if req != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(hr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best effort: the status is the error
		return fmt.Errorf("%s: %s: %s", path, resp.Status, strings.TrimSpace(string(b)))
	}
	if err := read(resp.Body); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	// Drain so the connection goes back to the pool.
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

func (c *client) call(method, path string, req, resp any) error {
	return c.do(method, path, req, func(r io.Reader) error {
		if resp == nil {
			return nil
		}
		return json.NewDecoder(r).Decode(resp)
	})
}

func facts(es []edge) []service.FactJSON {
	out := make([]service.FactJSON, len(es))
	for i, e := range es {
		out[i] = service.FactJSON{Pred: "E", Tuple: []int{e[0], e[1]}}
	}
	return out
}

func (c *client) commit(ins, del []edge) (*service.CommitResponse, error) {
	var resp service.CommitResponse
	err := c.call(http.MethodPost, "/v1/commit", service.CommitRequest{Insert: facts(ins), Delete: facts(del)}, &resp)
	return &resp, err
}

func (c *client) register(name, source string) (*service.RegisterResponse, error) {
	var resp service.RegisterResponse
	err := c.call(http.MethodPost, "/v1/register", service.RegisterRequest{Name: name, Program: source}, &resp)
	return &resp, err
}

func (c *client) query(req service.QueryRequestJSON) (*service.QueryResponse, error) {
	var resp service.QueryResponse
	err := c.call(http.MethodPost, "/v1/query", req, &resp)
	return &resp, err
}

// streamed is one NDJSON response, with the time its first tuple line was
// read.
type streamed struct {
	Header   service.StreamHeaderJSON
	Rows     [][]int
	Trailer  service.StreamTrailerJSON
	FirstRow time.Time // zero when the answer is empty
}

// queryStream reads a query as NDJSON: header line, one array per tuple,
// trailer line.
func (c *client) queryStream(req service.QueryRequestJSON) (*streamed, error) {
	req.Stream = true
	var out streamed
	err := c.do(http.MethodPost, "/v1/query", req, func(r io.Reader) error {
		sc := bufio.NewScanner(r)
		if !sc.Scan() {
			return fmt.Errorf("ndjson: no header line")
		}
		if err := json.Unmarshal(sc.Bytes(), &out.Header); err != nil {
			return fmt.Errorf("ndjson header: %w", err)
		}
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) > 0 && line[0] == '[' {
				if out.FirstRow.IsZero() {
					out.FirstRow = time.Now()
				}
				var t []int
				if err := json.Unmarshal(line, &t); err != nil {
					return fmt.Errorf("ndjson row: %w", err)
				}
				out.Rows = append(out.Rows, t)
				continue
			}
			return json.Unmarshal(line, &out.Trailer)
		}
		return fmt.Errorf("ndjson: no trailer line (%v)", sc.Err())
	})
	return &out, err
}

// scrape reads /v1/metrics flattened to numbers: counters and gauges under
// their name, histograms as name_sum and name_count.
func (c *client) scrape() (map[string]float64, error) {
	var raw map[string]struct {
		Type  string  `json:"type"`
		Value float64 `json:"value"`
		Sum   float64 `json:"sum"`
		Count float64 `json:"count"`
	}
	if err := c.call(http.MethodGet, "/v1/metrics", nil, &raw); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for name, m := range raw {
		if m.Type == "histogram" {
			out[name+"_sum"], out[name+"_count"] = m.Sum, m.Count
		} else {
			out[name] = m.Value
		}
	}
	return out, nil
}

func (c *client) stats() (*service.Stats, error) {
	var st service.Stats
	err := c.call(http.MethodGet, "/v1/stats", nil, &st)
	return &st, err
}

// subscribe opens an SSE subscription on a program's view and calls frame
// for every event until ctx ends or the server closes the stream; ready is
// closed once the hello frame has been read, so commits sent after it are
// all delivered.
func (c *client) subscribe(ctx context.Context, program string, ready chan<- struct{}, frame func(service.SubEvent, time.Time)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/subscribe?program="+program+"&buffer=4096", nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/v1/subscribe: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20) // a delta frame is one line
	for sc.Scan() {
		data, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: "))
		if !ok {
			continue
		}
		at := time.Now()
		var ev service.SubEvent
		if err := json.Unmarshal(data, &ev); err != nil {
			return fmt.Errorf("/v1/subscribe: bad frame: %w", err)
		}
		if ev.Type == service.EventHello && ready != nil {
			close(ready)
			ready = nil
		}
		frame(ev, at)
	}
	if ctx.Err() != nil {
		return nil // our own hang-up
	}
	return fmt.Errorf("/v1/subscribe: stream ended: %v", sc.Err())
}
