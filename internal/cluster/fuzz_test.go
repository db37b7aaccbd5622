package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"galsim/internal/campaign"
	"galsim/internal/pipeline"
	"galsim/internal/snapshot"
)

// FuzzJobCodec fuzzes the job/result wire encoding: decoding arbitrary
// bytes must never panic, and anything that decodes must round-trip to
// stable bytes (a field that failed to survive the trip — a missing tag,
// an unexported field — would silently change simulation results or drop
// them on the floor).
func FuzzJobCodec(f *testing.F) {
	seedJob := Job{
		ID: 42,
		Spec: campaign.RunSpec{
			Benchmark:    "gcc",
			Machine:      "gals",
			Instructions: 6_000,
			Slowdowns:    map[string]float64{"fp": 3, "all": 1.5},
			DynamicDVFS:  true,
		}.Canonical(),
	}
	f.Add(EncodeJob(seedJob))
	st := pipeline.Stats{Committed: 6_000, Fetched: 7_000}
	f.Add(EncodeJobResult(JobResult{JobID: 42, Stats: &st}))
	f.Add(EncodeJobResult(JobResult{JobID: 7, Error: "worker on fire"}))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"id":1}`))
	f.Add([]byte(`{"job_id":1,"stats":{"Committed":5}}`))
	f.Add([]byte(`{"id":1,"spec":{"benchmark":"gcc"},"extra":true}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"id":1}{"id":2}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		if j, err := DecodeJob(data); err == nil {
			b := EncodeJob(j)
			j2, err := DecodeJob(b)
			if err != nil {
				t.Fatalf("job round-trip failed to decode: %v\noriginal: %q\nencoded: %q", err, data, b)
			}
			if b2 := EncodeJob(j2); !bytes.Equal(b, b2) {
				t.Fatalf("job round-trip not stable:\nfirst:  %s\nsecond: %s", b, b2)
			}
		}
		if r, err := DecodeJobResult(data); err == nil {
			b := EncodeJobResult(r)
			r2, err := DecodeJobResult(b)
			if err != nil {
				t.Fatalf("result round-trip failed to decode: %v\noriginal: %q\nencoded: %q", err, data, b)
			}
			if b2 := EncodeJobResult(r2); !bytes.Equal(b, b2) {
				t.Fatalf("result round-trip not stable:\nfirst:  %s\nsecond: %s", b, b2)
			}
		}
	})
}

// TestJobCodecRejectsMalformed pins the strictness the fuzz target relies
// on: unknown fields, trailing garbage, and stats+error both set are all
// decode errors, not silent acceptance.
func TestJobCodecRejectsMalformed(t *testing.T) {
	if _, err := DecodeJob([]byte(`{"id":1,"spec":{"benchmark":"gcc"},"bogus":1}`)); err == nil {
		t.Error("unknown job field accepted")
	}
	if _, err := DecodeJob([]byte(`{"id":1}{"id":2}`)); err == nil {
		t.Error("trailing data accepted")
	}
	if _, err := DecodeJobResult([]byte(`{"job_id":1,"stats":{"Committed":1},"error":"x"}`)); err == nil {
		t.Error("result with both stats and error accepted")
	}
	j := Job{ID: 9, Spec: campaign.RunSpec{Benchmark: "swim"}.Canonical()}
	got, err := DecodeJob(EncodeJob(j))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 9 || got.Spec.Benchmark != "swim" || got.Spec.Key() != j.Spec.Key() {
		t.Errorf("round-trip changed the job: %+v", got)
	}
}

// FuzzCheckpointPost drives POST /jobs/checkpoint with arbitrary bodies and
// query strings against a coordinator holding one job leased to w1. The
// endpoint never answers 5xx. It answers 200 only for a body that decodes
// as a snapshot envelope, and accepts only one that can also seed the leased
// job and comes from its holder; everything else is a 4xx JSON error with a
// code. A post that is not accepted journals nothing.
func FuzzCheckpointPost(f *testing.F) {
	fx := newCkptFixture(f)
	good := captureCheckpoint(f, ckptSpec(), 8_000)
	n := committedOf(f, good)
	foreign := captureCheckpoint(f, campaign.RunSpec{Benchmark: "perl", Machine: "gals", Instructions: 20_000}.Canonical(), 8_000)
	f.Add(good, fx.query("w1", n))
	f.Add(good, fx.query("w2", n))
	f.Add(good, fx.query("w1", n+1))
	f.Add(good[:len(good)/2], fx.query("w1", n))
	f.Add(foreign, fx.query("w1", committedOf(f, foreign)))
	f.Add([]byte{}, "")
	f.Add([]byte("GSNP"), "worker_id=w1&job_id=1&committed=0&x=%zz")
	h := fx.c.Handler()
	f.Fuzz(func(t *testing.T, body []byte, rawQuery string) {
		before := fx.store.ckpts.Load()
		req := httptest.NewRequest(http.MethodPost, "/jobs/checkpoint", bytes.NewReader(body))
		req.URL.RawQuery = rawQuery
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var out struct {
			Accepted    bool
			Error, Code string
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("HTTP %d with a non-JSON body %q", rec.Code, rec.Body.Bytes())
		}
		switch {
		case rec.Code == http.StatusOK:
			snap, err := snapshot.DecodeBytes(body)
			if err != nil {
				t.Fatalf("HTTP 200 for a body that does not decode: %v", err)
			}
			q, _ := url.ParseQuery(rawQuery)
			if out.Accepted && (q.Get("worker_id") != "w1" || q.Get("job_id") != strconv.FormatUint(fx.jobID, 10) ||
				ckptSpec().CheckResume(snap) != nil) {
				t.Fatalf("accepted a checkpoint that is not the holder's for the leased job (query %q)", rawQuery)
			}
		case rec.Code >= 400 && rec.Code < 500:
			if out.Error == "" || out.Code == "" {
				t.Fatalf("HTTP %d without a typed error: %q", rec.Code, rec.Body.Bytes())
			}
		default:
			t.Fatalf("HTTP %d: %q", rec.Code, rec.Body.Bytes())
		}
		want := int64(0)
		if out.Accepted {
			want = 1
		}
		if got := fx.store.ckpts.Load() - before; got != want {
			t.Fatalf("accepted=%v journaled %d checkpoints", out.Accepted, got)
		}
	})
}
