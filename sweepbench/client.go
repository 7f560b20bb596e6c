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

	"github.com/ntvsim/ntvsim/internal/sweep"
)

// client is the benchmark's single closed-loop client: it submits a
// sweep, follows its event stream to the done event, reads the merged
// result, and only then submits the next. Submissions and result reads
// share one keep-alive connection and the event stream uses a second.
type client struct {
	base string
	api  *http.Client
	sse  *http.Client
}

func newClient(base string) *client {
	tr := func() *http.Transport {
		return &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	}
	return &client{
		base: base,
		api:  &http.Client{Transport: tr(), Timeout: 2 * time.Minute},
		sse:  &http.Client{Transport: tr(), Timeout: 2 * time.Minute},
	}
}

func (c *client) close() {
	c.api.CloseIdleConnections()
	c.sse.CloseIdleConnections()
}

// sweepObs is one sweep as the client saw it. Times are seconds from
// the start of the submit request.
type sweepObs struct {
	spec   sweep.Spec
	id     string
	failed string // why the sweep counts as failed; empty when it did not

	sweepS   float64 // submit → merged result body read
	submitS  float64 // POST round trip
	firstS   float64 // first progress event with completed ≥ 1
	doneLagS float64 // client receipt of done − server finished_at
	getS     float64 // done receipt → result body read
	bytes    int     // result body size

	total, cached int
	points        []sweep.PointResult
}

// sweepBody is the subset of the GET /v1/sweeps/{id} payload the client
// reads.
type sweepBody struct {
	ID         string     `json:"id"`
	State      string     `json:"state"`
	Total      int        `json:"total"`
	Cached     int        `json:"cached"`
	FinishedAt *time.Time `json:"finished_at"`
	Result     *struct {
		Data struct {
			Points []sweep.PointResult `json:"points"`
		} `json:"data"`
	} `json:"result"`
}

// run drives one sweep to its merged result. A transport error, non-2xx
// status or a state other than done marks the observation failed.
func (c *client) run(ctx context.Context, spec sweep.Spec) *sweepObs {
	o := &sweepObs{spec: spec}
	if err := c.drive(ctx, o); err != nil {
		o.failed = err.Error()
	}
	return o
}

func (c *client) drive(ctx context.Context, o *sweepObs) error {
	body, err := json.Marshal(o.spec)
	if err != nil {
		return err
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	var sub sweepBody
	if err := c.do(c.api, req, &sub, nil); err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	o.submitS = time.Since(start).Seconds()
	o.id = sub.ID

	doneAt, state, err := c.follow(ctx, o, start)
	if err != nil {
		return fmt.Errorf("events: %w", err)
	}
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/sweeps/"+o.id, nil)
	if err != nil {
		return err
	}
	var got sweepBody
	var raw []byte
	if err := c.do(c.api, req, &got, &raw); err != nil {
		return fmt.Errorf("result: %w", err)
	}
	end := time.Now()
	o.sweepS = end.Sub(start).Seconds()
	o.getS = end.Sub(doneAt).Seconds()
	o.bytes = len(raw)
	o.total, o.cached = got.Total, got.Cached
	if got.FinishedAt != nil {
		o.doneLagS = doneAt.Sub(*got.FinishedAt).Seconds()
	}
	if state != string(sweep.Done) || got.State != string(sweep.Done) {
		return fmt.Errorf("sweep %s ended %s", o.id, got.State)
	}
	if got.Result == nil {
		return fmt.Errorf("sweep %s: done without a merged result", o.id)
	}
	o.points = got.Result.Data.Points
	return nil
}

// do sends req and decodes a 2xx JSON body into v, keeping the raw
// bytes when raw is non-nil.
func (c *client) do(hc *http.Client, req *http.Request, v any, raw *[]byte) error {
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(b)))
	}
	if raw != nil {
		*raw = b
	}
	return json.Unmarshal(b, v)
}

// follow reads the sweep's SSE stream until the done event, recording
// when the first completed point was announced. It returns the receipt
// time and state of the done event.
func (c *client) follow(ctx context.Context, o *sweepObs, start time.Time) (time.Time, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/sweeps/"+o.id+"/events", nil)
	if err != nil {
		return time.Time{}, "", err
	}
	resp, err := c.sse.Do(req)
	if err != nil {
		return time.Time{}, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return time.Time{}, "", fmt.Errorf("%s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var ev struct {
				Completed int    `json:"completed"`
				State     string `json:"state"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				return time.Time{}, "", fmt.Errorf("bad %s event: %w", event, err)
			}
			now := time.Now()
			if o.firstS == 0 && (event == "progress" && ev.Completed >= 1 || event == "done") {
				o.firstS = now.Sub(start).Seconds()
			}
			if event == "done" {
				// The server ends the stream after done; reading to EOF
				// lets the next stream reuse this connection.
				_, _ = io.Copy(io.Discard, resp.Body)
				return now, ev.State, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return time.Time{}, "", err
	}
	return time.Time{}, "", fmt.Errorf("stream ended without a done event")
}

// scrape fetches the daemon's /metrics exposition.
func (c *client) scrape(ctx context.Context) (promSamples, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.api.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseProm(string(b)), nil
}
