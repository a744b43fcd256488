package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"zskyline/internal/gen"
	"zskyline/internal/obs"
	"zskyline/internal/point"
	"zskyline/internal/seq"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server, *point.Dataset) {
	t.Helper()
	ds := gen.Synthetic(gen.AntiCorrelated, 1000, 3, 7)
	s, err := New([]string{"price", "distance", "noise"}, ds, 12)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, ds
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestNewValidation(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 10, 2, 1)
	if _, err := New([]string{"a"}, ds, 8); err == nil {
		t.Error("attr/dims mismatch accepted")
	}
	if _, err := New([]string{"a", "a"}, ds, 8); err == nil {
		t.Error("duplicate attrs accepted")
	}
	if _, err := New([]string{"a", ""}, ds, 8); err == nil {
		t.Error("empty attr accepted")
	}
	if _, err := New([]string{"a", "b"}, &point.Dataset{Dims: 2}, 8); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestHealthAndSkyline(t *testing.T) {
	_, ts, ds := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health map[string]any
	json.NewDecoder(resp.Body).Decode(&health)
	if health["points"].(float64) != 1000 || health["dims"].(float64) != 3 {
		t.Errorf("health = %v", health)
	}

	resp2, err := http.Get(ts.URL + "/skyline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var sky map[string]any
	json.NewDecoder(resp2.Body).Decode(&sky)
	want := len(seq.SB(ds.Points, nil))
	if int(sky["count"].(float64)) != want {
		t.Errorf("skyline count %v, want %d", sky["count"], want)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t)

	// Drive some traffic so the request counters and the lazily
	// computed skyline's build gauges have something to show.
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/skyline")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	// Structural validity of the exposition: every non-comment line is
	// "name{labels} value" or "name value", and every family has a
	// TYPE line before its series.
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			typed[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed series line %q", line)
		}
		name := fields[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("unterminated label set in %q", line)
			}
			name = name[:i]
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suffix) {
				base = strings.TrimSuffix(name, suffix)
			}
		}
		if !typed[name] && !typed[base] {
			t.Errorf("series %q has no preceding TYPE line", line)
		}
	}

	for _, want := range []string{
		`zsky_http_requests_total{code="200",route="/skyline"} 3`,
		"# TYPE zsky_http_request_seconds histogram",
		`zsky_skyline_build_seconds{dataset="default"}`,
		`zsky_skyline_size{dataset="default"}`,
		`zsky_dataset_points{dataset="default"} 1000`,
		// Three identical /skyline requests: one computed, two replayed
		// from the versioned result cache.
		`zsky_cache_misses_total{dataset="default"} 1`,
		`zsky_cache_hits_total{dataset="default"} 2`,
		"zsky_dominance_tests_total",
		"zsky_datasets 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestQueryEndpoint(t *testing.T) {
	_, ts, ds := newTestServer(t)
	resp, out := postJSON(t, ts.URL+"/query", map[string]any{
		"prefer": []map[string]string{
			{"attr": "price", "dir": "min"},
			{"attr": "distance", "dir": "min"},
			{"attr": "noise", "dir": "ignore"},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	// Oracle: 2-d subspace skyline size.
	proj := make([]point.Point, ds.Len())
	for i, p := range ds.Points {
		proj[i] = point.Point{p[0], p[1]}
	}
	want := len(seq.BruteForce(proj))
	if int(out["count"].(float64)) != want {
		t.Errorf("query count %v, want %d", out["count"], want)
	}

	// Error paths.
	for _, bad := range []map[string]any{
		{},
		{"prefer": []map[string]string{{"attr": "nope", "dir": "min"}}},
		{"prefer": []map[string]string{{"attr": "price", "dir": "sideways"}}},
		{"prefer": []map[string]string{{"attr": "price", "dir": "ignore"}}},
	} {
		resp, _ := postJSON(t, ts.URL+"/query", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad request %v got status %d", bad, resp.StatusCode)
		}
	}
}

// Two rows whose projections agree to six significant digits are still
// different rows: /query must answer the dominating one, never the
// dominated one, in either preference direction.
func TestQueryNearTieRows(t *testing.T) {
	pts := []point.Point{
		{0.12345604, 0.5, 0.12345601}, // dominated by row 1 under both orders
		{0.12345601, 0.5, 0.12345604},
		{0.9, 0.25, 0},
	}
	data := point.BlockOf(3, pts)
	for _, tc := range []struct {
		cols []prefCol
		want []int
	}{
		{[]prefCol{{idx: 0}, {idx: 1}}, []int{1, 2}},
		{[]prefCol{{idx: 0}, {idx: 2, negate: true}}, []int{1}},
	} {
		if got := queryRows(data, tc.cols); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("queryRows(%v) = %v, want %v", tc.cols, got, tc.want)
		}
	}

	ds, err := point.NewDataset(3, pts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New([]string{"a", "b", "c"}, ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, out := postJSON(t, ts.URL+"/query", map[string]any{
		"prefer": []map[string]string{{"attr": "a", "dir": "min"}, {"attr": "b", "dir": "min"}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	if got := fmt.Sprint(out["rows"]); got != "[1 2]" {
		t.Errorf("/query rows %s, want [1 2]", got)
	}
}

func TestExplainEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, out := postJSON(t, ts.URL+"/explain", map[string]any{"point": []float64{2, 2, 2}})
	if resp.StatusCode != http.StatusOK || out["dominated"] != true {
		t.Errorf("explain worst corner: %d %v", resp.StatusCode, out)
	}
	resp, out = postJSON(t, ts.URL+"/explain", map[string]any{"point": []float64{-1, -1, -1}})
	if resp.StatusCode != http.StatusOK || out["dominated"] != false {
		t.Errorf("explain best corner: %d %v", resp.StatusCode, out)
	}
	resp, _ = postJSON(t, ts.URL+"/explain", map[string]any{"point": []float64{1}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("dim mismatch accepted: %d", resp.StatusCode)
	}
}

func TestRequestIDHeader(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	id := resp.Header.Get("X-Request-Id")
	if id == "" {
		t.Fatal("no X-Request-Id header")
	}

	// A client-supplied ID is echoed back and stamped on the event.
	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "client-chosen-1")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	io.Copy(io.Discard, resp2.Body)
	if got := resp2.Header.Get("X-Request-Id"); got != "client-chosen-1" {
		t.Fatalf("X-Request-Id = %q, want client-chosen-1", got)
	}
}

func TestEventsEndpoint(t *testing.T) {
	s, ts, _ := newTestServer(t)
	resp, out := postJSON(t, ts.URL+"/query", map[string]any{
		"prefer": []map[string]string{
			{"attr": "price", "dir": "min"},
			{"attr": "rating", "dir": "max"},
		},
	})
	_ = out
	if resp.StatusCode != http.StatusBadRequest { // rating is not an attr of this dataset
		t.Fatalf("status %d", resp.StatusCode)
	}
	resp2, out2 := postJSON(t, ts.URL+"/query", map[string]any{
		"prefer": []map[string]string{
			{"attr": "price", "dir": "min"},
			{"attr": "distance", "dir": "min"},
		},
	})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp2.StatusCode, out2)
	}
	id := resp2.Header.Get("X-Request-Id")

	// The event log holds both requests, queryable by request ID.
	respEv, err := http.Get(ts.URL + "/debug/events?id=" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer respEv.Body.Close()
	var evOut struct {
		Events []map[string]any `json:"events"`
	}
	if err := json.NewDecoder(respEv.Body).Decode(&evOut); err != nil {
		t.Fatal(err)
	}
	if len(evOut.Events) != 1 {
		t.Fatalf("events for %s = %d, want 1", id, len(evOut.Events))
	}
	ev := evOut.Events[0]
	if ev["route"] != "/query" || ev["query"] != "query:price:min,distance:min" {
		t.Errorf("event = %v", ev)
	}
	if ev["dominance"] != "pareto" || ev["dataset"] != "default@v1" {
		t.Errorf("event missing dominance/dataset: %v", ev)
	}
	if ev["cache"] != "miss" {
		t.Errorf("first query not a recorded cache miss: %v", ev)
	}
	if int(ev["results"].(float64)) != int(out2["count"].(float64)) {
		t.Errorf("event results %v != response count %v", ev["results"], out2["count"])
	}
	if _, ok := ev["phases"].(map[string]any)["solve"]; !ok {
		t.Errorf("event phases missing solve: %v", ev["phases"])
	}

	// The bad-request event is classified and carries the message.
	var bad *map[string]any
	for _, e := range snapshotEvents(t, s) {
		if e["status"].(float64) == http.StatusBadRequest {
			bad = &e
			break
		}
	}
	if bad == nil {
		t.Fatal("no bad-request event recorded")
	}
	if (*bad)["error"] != "bad-request" || (*bad)["message"] == "" {
		t.Errorf("bad-request event = %v", *bad)
	}
}

func snapshotEvents(t *testing.T, s *Server) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, ev := range s.Events().Snapshot() {
		blob, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		json.Unmarshal(blob, &m)
		out = append(out, m)
	}
	return out
}

func TestSlowQueryTracePromotion(t *testing.T) {
	s, ts, _ := newTestServer(t)
	// Threshold 1ns: every request is "slow" and carries its trace.
	s.SetSlowThreshold(1)
	resp, err := http.Get(ts.URL + "/skyline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	events := s.Events().Snapshot()
	if len(events) == 0 {
		t.Fatal("no events")
	}
	last := events[len(events)-1]
	if last.Trace == "" || !strings.Contains(last.Trace, "solve") {
		t.Fatalf("slow event trace = %q, want span tree with solve", last.Trace)
	}
	if !strings.Contains(last.Trace, "request_id="+last.ID) {
		t.Fatalf("trace not joined to request id:\n%s", last.Trace)
	}
}

func TestAccessLogLine(t *testing.T) {
	s, ts, _ := newTestServer(t)
	var buf bytes.Buffer
	s.SetAccessLog(&buf)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("access log not one JSON line: %q", buf.String())
	}
	if line["route"] != "/healthz" || line["status"].(float64) != 200 {
		t.Errorf("access line = %v", line)
	}
	if line["id"] != resp.Header.Get("X-Request-Id") {
		t.Errorf("access line id %v != header %q", line["id"], resp.Header.Get("X-Request-Id"))
	}
	if line["duration_ms"].(float64) < 0 {
		t.Errorf("bad duration: %v", line)
	}
}

func TestQueryLatencyQuantiles(t *testing.T) {
	s, ts, _ := newTestServer(t)
	for i := 0; i < 5; i++ {
		resp, err := http.Get(ts.URL + "/skyline")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	snap := s.Metrics().Latency("zsky_query_seconds",
		obs.L("route", "/skyline"), obs.L("dataset", "default")).Snapshot()
	if snap.Count != 5 || snap.P50 <= 0 || snap.P99 < snap.P50 {
		t.Fatalf("latency snapshot = %+v", snap)
	}
	// And the summary renders in the exposition.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), `zsky_query_seconds{dataset="default",route="/skyline",quantile="0.99"}`) {
		t.Fatalf("exposition missing query latency summary:\n%s", body)
	}
}

func TestTopKEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, out := postJSON(t, ts.URL+"/topk", map[string]any{"k": 3, "weights": []float64{1, 1, 1}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	results := out["results"].([]any)
	if len(results) != 3 {
		t.Errorf("topk returned %d", len(results))
	}
	for _, bad := range []map[string]any{
		{"k": 0, "weights": []float64{1, 1, 1}},
		{"k": 3, "weights": []float64{1}},
		{"k": 3, "weights": []float64{1, -1, 1}},
	} {
		resp, _ := postJSON(t, ts.URL+"/topk", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad topk %v got %d", bad, resp.StatusCode)
		}
	}
}
