package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// freePort reserves an ephemeral loopback port and releases it for the
// CLI under test to bind. The tiny reuse window is acceptable in tests.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestServeMetricsScrapableDuringSolve runs a real solve with
// -serve-metrics and scrapes /metrics and /healthz while it is in
// flight, pinning the end-to-end serving path: flag → obscli session →
// expo mux → OpenMetrics text.
func TestServeMetricsScrapableDuringSolve(t *testing.T) {
	addr := freePort(t)
	var out bytes.Buffer
	done := make(chan error, 1)
	// -stage compare over 5000 miners solves both ESP modes over the full
	// price grid: hundreds of milliseconds, against the first sweep's
	// metrics registering within a few, so the endpoint stays up long
	// after it has something to expose.
	go func() {
		done <- run([]string{"-stage", "compare", "-n", "5000", "-parallel", "1", "-serve-metrics", addr}, &out)
	}()

	var metricsBody, healthBody string
	deadline := time.Now().Add(10 * time.Second)
scrape:
	for time.Now().Before(deadline) {
		select {
		case err := <-done:
			t.Fatalf("solve finished before /metrics exposed a metric family (run err %v)", err)
		default:
		}
		resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
		if err != nil {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		body, readErr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if readErr != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /metrics: status %d, read err %v", resp.StatusCode, readErr)
		}
		if !strings.Contains(resp.Header.Get("Content-Type"), "openmetrics-text") {
			t.Errorf("Content-Type = %q, want openmetrics-text", resp.Header.Get("Content-Type"))
		}
		if !strings.Contains(string(body), "# TYPE ") {
			// Up, but the solve has not registered its first metric yet.
			time.Sleep(2 * time.Millisecond)
			continue
		}
		metricsBody = string(body)
		h, err := http.Get(fmt.Sprintf("http://%s/healthz", addr))
		if err != nil {
			t.Fatalf("GET /healthz during run: %v", err)
		}
		hb, _ := io.ReadAll(h.Body)
		h.Body.Close()
		if h.StatusCode != http.StatusOK {
			t.Errorf("/healthz status = %d, want 200", h.StatusCode)
		}
		healthBody = string(hb)
		break scrape
	}
	if metricsBody == "" {
		t.Fatal("never scraped /metrics within the deadline")
	}
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}

	if !strings.HasSuffix(metricsBody, "# EOF\n") {
		t.Errorf("exposition missing the # EOF terminator:\n%s", metricsBody)
	}
	if !strings.Contains(healthBody, "ok") {
		t.Errorf("/healthz body = %q, want ok", healthBody)
	}
	// The scrape loop waits for the first family, so a mid-run body
	// always carries one.
	if !strings.Contains(metricsBody, "# TYPE ") {
		t.Errorf("exposition has no TYPE lines:\n%s", metricsBody)
	}

	// After the run the endpoint must be down: the session owns the
	// listener's lifetime. Drop pooled keep-alive connections first so
	// the probe dials fresh instead of reusing a live one.
	http.DefaultClient.CloseIdleConnections()
	if _, err := http.Get(fmt.Sprintf("http://%s/metrics", addr)); err == nil {
		t.Error("metrics endpoint still serving after run returned")
	}

	if !strings.Contains(out.String(), "--- connected mode ---") {
		t.Errorf("solve output missing the compare report:\n%s", out.String())
	}
}
