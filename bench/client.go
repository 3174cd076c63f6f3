package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"
)

func getJSON(ctx context.Context, c *http.Client, target string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("bench: GET %s: %s", target, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// windowService streams `windows` windows through POST /stream one at
// a time and returns, for each, the milliseconds from the last byte of
// the window written to the last byte of its emission read. The script
// preserves length, so the client knows how much to wait for.
func windowService(ctx context.Context, addr string, seed uint64, windows int) ([]float64, error) {
	text := newCorpus(seed + 2).text((windows + 1) * streamWindowBytes / 28)
	ends := windowOffsets(text)
	if len(ends) <= windows {
		return nil, fmt.Errorf("bench: window probe generated %d windows, want more than %d", len(ends), windows)
	}
	client := newClient(addr)
	defer client.CloseIdleConnections()
	pr, pw := io.Pipe()
	target := fmt.Sprintf("http://pash/stream?script=%s&window-bytes=%d&window=1h", url.QueryEscape("tr A-Z a-z"), streamWindowBytes)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, pr)
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Pash-Tenant", tenants[0])
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("bench: window probe: %s", resp.Status)
	}
	var out []float64
	start := 0
	for _, end := range ends[:windows] {
		if _, err := pw.Write(text[start:end]); err != nil {
			return nil, err
		}
		written := time.Now()
		if _, err := io.CopyN(io.Discard, resp.Body, int64(end-start)); err != nil {
			return nil, fmt.Errorf("bench: window probe: emission short: %w", err)
		}
		out = append(out, time.Since(written).Seconds()*1e3)
		start = end
	}
	pw.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return nil, err
	}
	if code := resp.Trailer.Get("X-Pash-Exit-Code"); code != "0" {
		return nil, fmt.Errorf("bench: window probe: exit code %q", code)
	}
	return out, nil
}
