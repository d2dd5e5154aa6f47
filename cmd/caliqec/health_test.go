package main

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestFetchHealthCancels: a health endpoint that accepts a poll and never
// answers must not hold the command past an interrupt. fetchHealth returns
// promptly once its context is cancelled, with an error that says so.
func TestFetchHealthCancels(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(release) // before Close, which waits for the handler

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	_, err := fetchHealth(ctx, strings.TrimPrefix(srv.URL, "http://"), "")
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("fetchHealth returned after %v, want within a second of the cancel", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("fetchHealth error = %v, want one wrapping context.Canceled", err)
	}
}
