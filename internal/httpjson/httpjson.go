// Package httpjson holds the JSON-over-HTTP plumbing shared by the galsimd
// service handlers and the cluster fleet endpoints: one implementation of
// response encoding, error bodies, and strict request decoding, so a fix
// to any of them cannot silently miss a package.
package httpjson

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// Write encodes v as indented JSON with the given status.
func Write(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

// Error writes the canonical {"error": "..."} body.
func Error(w http.ResponseWriter, status int, err error) {
	Write(w, status, map[string]string{"error": err.Error()})
}

// ErrorCode writes {"error": "...", "code": "..."}: the stable machine-
// readable code lets clients branch on the failure class without parsing
// prose (which is free to improve).
func ErrorCode(w http.ResponseWriter, status int, code string, err error) {
	Write(w, status, map[string]string{"error": err.Error(), "code": code})
}

// CodeBodyTooLarge is the ErrorCode value for oversized request bodies.
const CodeBodyTooLarge = "body_too_large"

// Decode strictly parses a request body of at most maxBytes into v,
// rejecting unknown fields. An oversized body is answered with 413 and a
// typed code (the client must shrink the request, not fix its syntax); any
// other failure writes a 400. Returns false when a response was written.
func Decode(w http.ResponseWriter, r *http.Request, v any, maxBytes int64) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		bodyError(w, "decoding", err)
		return false
	}
	return true
}

// ReadBody reads a raw request body of at most maxBytes, answering an
// oversized one with 413 and CodeBodyTooLarge exactly as Decode does.
// Returns false when a response was written.
func ReadBody(w http.ResponseWriter, r *http.Request, maxBytes int64) ([]byte, bool) {
	// Size the buffer from Content-Length so a large body is read without
	// regrowing; the reader still enforces maxBytes.
	n := r.ContentLength
	if n < 0 || n > maxBytes {
		n = 0
	}
	buf := bytes.NewBuffer(make([]byte, 0, n+bytes.MinRead))
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBytes)); err != nil {
		bodyError(w, "reading", err)
		return nil, false
	}
	return buf.Bytes(), true
}

func bodyError(w http.ResponseWriter, verb string, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		ErrorCode(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
			fmt.Errorf("request body exceeds the %d-byte limit", tooBig.Limit))
		return
	}
	Error(w, http.StatusBadRequest, fmt.Errorf("%s request body: %w", verb, err))
}
