package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dfg"
	"repro/pash"
)

// plannedTestServer builds a daemon the way cmd/pash-serve does: the
// planned preset with -width as a ceiling, one scheduler.
func plannedTestServer(t *testing.T, dir string, width int) (*Server, *httptest.Server) {
	t.Helper()
	sess := pash.NewSession(pash.Options{Width: width, Preset: pash.Planned})
	sess.Dir = dir
	srv := New(sess, pash.NewScheduler(8))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestPlannedWidthPerRequest: every request is planned at the width its
// input pays for. The three request shapes of the serve-mixed benchmark —
// a generator, a pipeline over a 64 KB server-side file, a 256 KB body
// with a Content-Length — are under break-even and run at width 1; a 2 MB
// body gets the ceiling; a chunked body declares no size and is assumed
// large. A /stream window is sized by its own bytes like any body.
// Asserted on the decisions and the bytes, never on a clock.
func TestPlannedWidthPerRequest(t *testing.T) {
	dir := t.TempDir()
	var text strings.Builder
	for i := 0; text.Len() < 2<<20; i++ {
		fmt.Fprintf(&text, "w%d Water under the %d bridge\n", i%97, i)
	}
	body2M := text.String()
	small := body2M[:strings.LastIndexByte(body2M[:64<<10], '\n')+1]
	body256K := body2M[:strings.LastIndexByte(body2M[:256<<10], '\n')+1]
	if err := os.WriteFile(filepath.Join(dir, "small.txt"), []byte(small), 0o644); err != nil {
		t.Fatal(err)
	}
	const (
		tinyScript = `seq 1 200 | wc -l`
		fileScript = `cut -d ' ' -f1 small.txt | sort | uniq -c | sort -rn | head -n 5`
		bodyScript = `tr A-Z a-z | grep water | cut -d ' ' -f1-3 | sort | uniq -c | sort -rn | head -n 20`
		// Its own region, so that no sized run has left it a history.
		chunkedScript = `tr A-Z a-z | grep -c water`
	)
	srv, ts := plannedTestServer(t, dir, 2)
	_, ref := plannedTestServer(t, dir, 1) // the sequential daemon is the oracle

	post := func(ts *httptest.Server, script, params string, body io.Reader) string {
		t.Helper()
		resp, err := http.Post(ts.URL+"/run?script="+queryEscape(script)+params, "application/octet-stream", body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != 200 || resp.Trailer.Get("X-Pash-Exit-Code") != "0" {
			t.Fatalf("%s: status %d, exit %q, error %q, read error %v", script, resp.StatusCode,
				resp.Trailer.Get("X-Pash-Exit-Code"), resp.Trailer.Get("X-Pash-Error"), err)
		}
		return string(out)
	}
	var counts [dfg.NumWidthReasons]int64 // what the snapshot should say so far
	check := func(name, script, params string, body func() io.Reader, want dfg.WidthPlan) {
		t.Helper()
		got := post(ts, script, params, body())
		if wantOut := post(ref, script, "", body()); got != wantOut {
			t.Errorf("%s: response differs from the width-1 daemon's:\n%q\n-- want --\n%q", name, got, wantOut)
		}
		counts[want.Reason]++
		tally := srv.Snapshot().PlanCache.Widths
		if tally.N != counts {
			t.Errorf("%s: regions by reason %v, want %v", name, tally.N, counts)
		}
		if last := tally.Last[want.Reason]; last != want {
			t.Errorf("%s: planned %v, want %v", name, last, want)
		}
	}
	noBody := func() io.Reader { return nil }
	sized := func(s string) func() io.Reader { return func() io.Reader { return strings.NewReader(s) } }

	check("file", fileScript, "", noBody,
		dfg.WidthPlan{Asked: 2, Planned: 1, Reason: dfg.WidthInput, Measure: int64(len(small))})
	check("file, width=8", fileScript, "&width=8", noBody,
		dfg.WidthPlan{Asked: 8, Planned: 1, Reason: dfg.WidthInput, Measure: int64(len(small))})
	check("256 KB body", bodyScript, "", sized(body256K),
		dfg.WidthPlan{Asked: 2, Planned: 1, Reason: dfg.WidthInput, Measure: int64(len(body256K))})
	check("2 MB body", bodyScript, "", sized(body2M),
		dfg.WidthPlan{Asked: 2, Planned: 2, Reason: dfg.WidthInput, Measure: int64(len(body2M))})
	check("2 MB body, width=8", bodyScript, "&width=8", sized(body2M),
		dfg.WidthPlan{Asked: 8, Planned: 4, Reason: dfg.WidthInput, Measure: int64(len(body2M))})
	// No Content-Length (a chunked upload) and a region never run before:
	// nothing is known, it keeps the ceiling. A generator has no input to
	// size either.
	chunked := func() io.Reader { return struct{ io.Reader }{strings.NewReader(body256K)} }
	check("chunked body", chunkedScript, "", chunked, dfg.WidthPlan{Asked: 2, Planned: 2, Reason: dfg.WidthUnknown})
	check("tiny", tinyScript, "", noBody, dfg.WidthPlan{Asked: 2, Planned: 2, Reason: dfg.WidthUnknown})
	// From their second run on both are sized by their measured history —
	// at whatever width that wall works out to, which this test does not
	// look at.
	for i := 0; i < 2; i++ {
		if got, want := post(ts, tinyScript, "", nil), "200\n"; got != want {
			t.Errorf("tiny again: %q, want %q", got, want)
		}
		if got, want := post(ts, chunkedScript, "", chunked()), post(ref, chunkedScript, "", chunked()); got != want {
			t.Errorf("chunked body again: %q, want %q", got, want)
		}
		counts[dfg.WidthHistory] += 2
	}
	if tally := srv.Snapshot().PlanCache.Widths; tally.N != counts {
		t.Errorf("second runs: regions by reason %v, want %v", tally.N, counts)
	}

	// A stream window is a region whose input is its own bytes: each full
	// 1 MiB window of a 2.5 MiB stream plans 2 of the 8 it asks for, and
	// the short final one plans 1. The body is fed one window at a time,
	// and each decision is read once that window's emission is back.
	const winBytes = 1 << 20
	var stream strings.Builder
	for i := 0; stream.Len() < 5<<19; i++ {
		fmt.Fprintf(&stream, "w%d Water under the %d bridge\n", i%97, i)
	}
	var wins []string
	for rest := stream.String(); rest != ""; {
		end := len(rest)
		if end >= winBytes {
			end = winBytes + strings.IndexByte(rest[winBytes-1:], '\n')
		}
		wins = append(wins, rest[:end])
		rest = rest[end:]
	}
	streamURL := "/stream?script=" + queryEscape("tr A-Z a-z") + fmt.Sprintf("&window-bytes=%d&window=1h", winBytes)
	pr, pw := io.Pipe()
	defer pw.Close()
	resp, err := http.Post(ts.URL+streamURL+"&width=8", "application/octet-stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got strings.Builder
	for k, win := range wins {
		if _, err := io.WriteString(pw, win); err != nil {
			t.Fatal(err)
		}
		if k == len(wins)-1 {
			pw.Close() // the final window is cut at the end of the stream
		}
		emission := make([]byte, len(win))
		if _, err := io.ReadFull(resp.Body, emission); err != nil {
			t.Fatalf("window %d: emission short: %v", k, err)
		}
		got.Write(emission)
		want := dfg.WidthPlan{Asked: 8, Planned: 2, Reason: dfg.WidthInput, Measure: int64(len(win))}
		if k == len(wins)-1 {
			want.Planned = 1
		}
		counts[dfg.WidthInput]++
		tally := srv.Snapshot().PlanCache.Widths
		if tally.N != counts || tally.Last[dfg.WidthInput] != want {
			t.Errorf("window %d of %d: planned %v, regions by reason %v; want %v, %v", k+1, len(wins), tally.Last[dfg.WidthInput], tally.N, want, counts)
		}
	}
	if rest, err := io.ReadAll(resp.Body); err != nil || len(rest) != 0 || resp.Trailer.Get("X-Pash-Exit-Code") != "0" {
		t.Fatalf("stream end: %d more bytes, read error %v, exit %q, error %q", len(rest), err,
			resp.Trailer.Get("X-Pash-Exit-Code"), resp.Trailer.Get("X-Pash-Error"))
	}
	if len(wins) != 3 {
		t.Errorf("%d windows, want two full ones and a short one", len(wins))
	}
	refResp, err := http.Post(ref.URL+streamURL, "application/octet-stream", strings.NewReader(stream.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer refResp.Body.Close()
	if want, err := io.ReadAll(refResp.Body); err != nil || got.String() != string(want) {
		t.Errorf("stream emissions differ from the width-1 daemon's (%d vs %d bytes, read error %v)", got.Len(), len(want), err)
	}
}
