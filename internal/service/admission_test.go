package service

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"galsim/internal/admission"
	"galsim/internal/campaign"
	"galsim/internal/httpjson"
	"galsim/internal/pipeline"
)

// newAdmittedServer is newTestServer plus an admission controller with a
// fake clock: tenant "acme" (1 req/s, burst 2, 4 queued units) and tenant
// "open" (unlimited).
func newAdmittedServer(t *testing.T) (*Server, *admission.Controller, *httptest.Server, func(time.Duration)) {
	t.Helper()
	now := time.Unix(1_000_000, 0)
	clock := func() time.Time { return now }
	ctrl := admission.NewController(admission.Config{Tenants: []admission.Tenant{
		{Name: "acme", Key: "key-acme", RatePerSec: 1, Burst: 2, MaxQueuedUnits: 4},
		{Name: "open", Key: "key-open"},
	}}, admission.Options{Now: clock})
	srv, ts := newTestServer(t)
	srv.Admission = ctrl
	advance := func(d time.Duration) { now = now.Add(d) }
	return srv, ctrl, ts, advance
}

func postKey(t *testing.T, url, key, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
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

const runBody = `{"benchmark":"gcc","instructions":5000}`

// TestAdmissionEndToEnd drives the gate through the real /run and /sweep
// handlers: 401 without a key, 200 with one, 429 + Retry-After past the
// burst, quota rejections for oversized sweeps, refill after the clock
// advances.
func TestAdmissionEndToEnd(t *testing.T) {
	_, _, ts, advance := newAdmittedServer(t)

	resp, body := postKey(t, ts.URL+"/run", "", runBody)
	if resp.StatusCode != http.StatusUnauthorized || !strings.Contains(string(body), admission.CodeUnauthorized) {
		t.Fatalf("no key: %d %s, want 401 %s", resp.StatusCode, body, admission.CodeUnauthorized)
	}
	resp, body = postKey(t, ts.URL+"/run", "key-bogus", runBody)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bad key: %d %s, want 401", resp.StatusCode, body)
	}

	// Burst 2: two runs pass, the third throttles with a Retry-After hint.
	for i := 0; i < 2; i++ {
		if resp, body := postKey(t, ts.URL+"/run", "key-acme", runBody); resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: %d %s", i, resp.StatusCode, body)
		}
	}
	resp, body = postKey(t, ts.URL+"/run", "key-acme", runBody)
	if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(string(body), admission.CodeThrottled) {
		t.Fatalf("throttled run: %d %s, want 429 %s", resp.StatusCode, body, admission.CodeThrottled)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("throttled response missing Retry-After")
	}
	advance(time.Second) // refill one token
	if resp, body := postKey(t, ts.URL+"/run", "key-acme", runBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("run after refill: %d %s", resp.StatusCode, body)
	}

	// The unlimited tenant never throttles.
	for i := 0; i < 5; i++ {
		if resp, body := postKey(t, ts.URL+"/run", "key-open", runBody); resp.StatusCode != http.StatusOK {
			t.Fatalf("open run %d: %d %s", i, resp.StatusCode, body)
		}
	}
}

func TestAdmissionSweepQuota(t *testing.T) {
	_, ctrl, ts, _ := newAdmittedServer(t)

	// 2 benchmarks × 3 machines = 6 units, over acme's 4-unit quota. The
	// request passes the rate check (burst 2) but fails the quota check.
	sweep := `{"benchmarks":["gcc","li"],"machines":["base","gals","base"],"instructions":5000}`
	resp, body := postKey(t, ts.URL+"/sweep", "key-acme", sweep)
	if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(string(body), admission.CodeQuota) {
		t.Fatalf("over-quota sweep: %d %s, want 429 %s", resp.StatusCode, body, admission.CodeQuota)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("quota response missing Retry-After")
	}
	if q := ctrl.QueuedUnits("acme"); q != 0 {
		t.Errorf("rejected sweep left %d queued units charged", q)
	}

	// A 4-unit sweep fits exactly, and its units are released afterwards.
	resp, body = postKey(t, ts.URL+"/sweep", "key-acme",
		`{"benchmarks":["gcc","li"],"machines":["base","gals"],"instructions":5000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-quota sweep: %d %s", resp.StatusCode, body)
	}
	if q := ctrl.QueuedUnits("acme"); q != 0 {
		t.Errorf("finished sweep left %d queued units charged", q)
	}
}

// busyBackend refuses every batch the way a full coordinator queue does.
type busyBackend struct{}

func (busyBackend) RunAllProgress(context.Context, []campaign.RunSpec, campaign.ProgressFunc) ([]pipeline.Stats, error) {
	return nil, campaign.ErrBackendBusy
}

func TestBackendBusyMapsTo429(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.Backend = busyBackend{}
	for _, route := range []string{"/run", "/sweep"} {
		body := runBody
		if route == "/sweep" {
			body = `{"benchmarks":["gcc"],"instructions":5000}`
		}
		resp, b := post(t, ts.URL+route, body)
		if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(string(b), "backend_busy") {
			t.Errorf("%s: %d %s, want 429 backend_busy", route, resp.StatusCode, b)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s: busy response missing Retry-After", route)
		}
	}
}

// priorityBackend records the priority each batch arrived with.
type priorityBackend struct {
	engine *campaign.Engine
	prios  []campaign.Priority
}

func (b *priorityBackend) RunAllProgress(ctx context.Context, specs []campaign.RunSpec, fn campaign.ProgressFunc) ([]pipeline.Stats, error) {
	b.prios = append(b.prios, campaign.PriorityOf(ctx))
	return b.engine.RunAllProgress(ctx, specs, fn)
}

// TestRunCarriesInteractivePriority: /run marks its batch interactive so a
// priority-aware backend can jump it past queued bulk sweeps; /sweep stays
// bulk.
func TestRunCarriesInteractivePriority(t *testing.T) {
	srv, ts := newTestServer(t)
	backend := &priorityBackend{engine: campaign.NewEngine(1)}
	srv.Backend = backend
	if resp, body := post(t, ts.URL+"/run", runBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %d %s", resp.StatusCode, body)
	}
	if resp, body := post(t, ts.URL+"/sweep", `{"benchmarks":["gcc"],"instructions":5000}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d %s", resp.StatusCode, body)
	}
	want := []campaign.Priority{campaign.PriorityInteractive, campaign.PriorityBulk}
	if len(backend.prios) != 2 || backend.prios[0] != want[0] || backend.prios[1] != want[1] {
		t.Errorf("backend priorities = %v, want %v", backend.prios, want)
	}
}

// TestServiceEndpointBodyLimits: every JSON POST route answers an oversized
// body with 413 and the typed body_too_large code.
func TestServiceEndpointBodyLimits(t *testing.T) {
	_, ts := newTestServer(t)
	// Valid JSON throughout so the decoder reads up to the cap instead of
	// bailing on a syntax error.
	big := `{"pad":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	for _, route := range []string{"/run", "/sweep", "/workloads", "/machines"} {
		t.Run(route, func(t *testing.T) {
			resp, body := post(t, ts.URL+route, big)
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Errorf("status = %d, want 413", resp.StatusCode)
			}
			if !strings.Contains(string(body), httpjson.CodeBodyTooLarge) {
				t.Errorf("body %s missing code %q", body, httpjson.CodeBodyTooLarge)
			}
		})
	}
}
