package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"galsim/internal/campaign"
	"galsim/internal/telemetry"
	"galsim/internal/timeline"
)

func doHeaders(t *testing.T, method, url, body string, headers map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestSweepEchoesRequestAndTraceIDs: the sweep listing and per-sweep
// progress must echo the request ID and trace ID of the submitting request
// so clients can correlate a sweep with their own logs and traces.
func TestSweepEchoesRequestAndTraceIDs(t *testing.T) {
	_, ts := newTestServer(t)
	traceID := timeline.NewTraceID()
	parent := timeline.NewSpanID()
	resp, body := doHeaders(t, "POST", ts.URL+"/sweep",
		`{"benchmarks":["gcc"],"machines":["base"],"instructions":2000}`,
		map[string]string{
			"X-Request-Id":              "req-echo-1",
			telemetry.TraceParentHeader: timeline.FormatTraceParent(traceID, parent),
		})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d %s", resp.StatusCode, body)
	}
	var sr SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}

	resp, body = get(t, ts.URL+"/sweeps/"+sr.ID+"/progress")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("progress: %d %s", resp.StatusCode, body)
	}
	var st sweepStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.RequestID != "req-echo-1" {
		t.Errorf("progress request_id = %q, want the submitted X-Request-Id", st.RequestID)
	}
	if st.TraceID != traceID {
		t.Errorf("progress trace_id = %q, want the inbound traceparent's %q", st.TraceID, traceID)
	}

	resp, body = get(t, ts.URL+"/sweeps")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweeps: %d %s", resp.StatusCode, body)
	}
	var listing SweepsResponse
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, sw := range listing.Sweeps {
		if sw.ID == sr.ID {
			found = true
			if sw.RequestID != "req-echo-1" {
				t.Errorf("/sweeps listing request_id = %q, want req-echo-1", sw.RequestID)
			}
			if sw.TraceID != traceID {
				t.Errorf("/sweeps listing trace_id = %q, want %q", sw.TraceID, traceID)
			}
		}
	}
	if !found {
		t.Errorf("/sweeps listing does not contain sweep %s", sr.ID)
	}
}

// TestRunWithTimelineQuery: ?timeline=1 on /run attaches a tracer and returns
// the trace-event JSON inline; the repeated (cached) run omits it, since a
// memoized result has no execution to trace.
func TestRunWithTimelineQuery(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"benchmark":"gcc","machine":"gals","instructions":2000}`

	resp, raw := post(t, ts.URL+"/run?timeline=1", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run?timeline=1: %d %s", resp.StatusCode, raw)
	}
	var rr RunResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Timeline) == 0 {
		t.Fatal("first traced run returned no timeline")
	}
	if err := timeline.Validate(rr.Timeline); err != nil {
		t.Fatalf("inline timeline is malformed: %v", err)
	}

	resp, raw = post(t, ts.URL+"/run?timeline=1", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat run: %d %s", resp.StatusCode, raw)
	}
	var second RunResponse
	if err := json.Unmarshal(raw, &second); err != nil {
		t.Fatal(err)
	}
	if len(second.Timeline) != 0 {
		t.Error("cache-hit run returned a timeline; a memoized result has no execution to trace")
	}

	// An untraced run never pays for a recorder.
	resp, raw = post(t, ts.URL+"/run", `{"benchmark":"swim","instructions":2000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plain run: %d %s", resp.StatusCode, raw)
	}
	if strings.Contains(string(raw), `"timeline"`) {
		t.Error("plain /run response contains a timeline field")
	}

	resp, raw = post(t, ts.URL+"/run?timeline=bogus", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("?timeline=bogus: %d %s, want 400", resp.StatusCode, raw)
	}
}

// TestSweepTraceEndpoint covers GET /sweeps/{id}/trace: 404s for unknown
// sweeps and untraced deployments, and a Perfetto-loadable trace when the
// span collector holds the sweep's spans.
func TestSweepTraceEndpoint(t *testing.T) {
	srv := New(campaign.NewEngine(0))
	spans := timeline.NewSpanCollector(0)
	srv.Spans = spans
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	resp, _ := get(t, ts.URL+"/sweeps/nope/trace")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown sweep trace: %d, want 404", resp.StatusCode)
	}

	traceID := timeline.NewTraceID()
	resp, body := doHeaders(t, "POST", ts.URL+"/sweep",
		`{"benchmarks":["gcc"],"machines":["base"],"instructions":2000}`,
		map[string]string{telemetry.TraceParentHeader: timeline.FormatTraceParent(traceID, timeline.NewSpanID())})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d %s", resp.StatusCode, body)
	}
	var sr SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}

	// The local engine records no spans — only a fleet coordinator does —
	// so the endpoint reports there is nothing to serve yet.
	resp, _ = get(t, ts.URL+"/sweeps/"+sr.ID+"/trace")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("trace with empty collector: %d, want 404", resp.StatusCode)
	}

	// Simulate a coordinator having recorded the campaign.
	root := timeline.NewSpanID()
	spans.Add(
		timeline.Span{TraceID: traceID, SpanID: root, Name: "campaign", Service: "coordinator",
			StartUnixNs: 1_000, EndUnixNs: 50_000},
		timeline.Span{TraceID: traceID, SpanID: timeline.NewSpanID(), ParentID: root,
			Name: "execute", Service: "worker w1", StartUnixNs: 2_000, EndUnixNs: 40_000},
	)
	resp, body = get(t, ts.URL+"/sweeps/"+sr.ID+"/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("trace Content-Type = %q", ct)
	}
	if err := timeline.Validate(body); err != nil {
		t.Fatalf("sweep trace is malformed: %v\n%s", err, body)
	}
	for _, want := range []string{"campaign", "worker w1", "coordinator"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("sweep trace missing %q", want)
		}
	}

	// A server with no collector at all 404s rather than pretending.
	bare, tsBare := newTestServer(t)
	_ = bare
	resp, body = post(t, tsBare.URL+"/sweep", `{"benchmarks":["gcc"],"machines":["base"],"instructions":2000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bare sweep: %d %s", resp.StatusCode, body)
	}
	var bsr SweepResponse
	if err := json.Unmarshal(body, &bsr); err != nil {
		t.Fatal(err)
	}
	resp, _ = get(t, tsBare.URL+"/sweeps/"+bsr.ID+"/trace")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("trace without a collector: %d, want 404", resp.StatusCode)
	}
}
