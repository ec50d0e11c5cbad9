package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
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

// gatedWriter holds every Write until open is closed, then appends to
// buf. Handed to run as its output, it keeps the run in flight — solved,
// its metrics registered, its listener up — until the test has scraped,
// however fast the solve itself is.
type gatedWriter struct {
	open <-chan struct{}
	buf  bytes.Buffer
}

func (w *gatedWriter) Write(p []byte) (int, error) {
	<-w.open
	return w.buf.Write(p)
}

// TestServeMetricsScrapableDuringSolve runs a real solve with
// -serve-metrics and scrapes /metrics and /healthz while it is in
// flight, pinning the end-to-end serving path: flag → obscli session →
// expo mux → OpenMetrics text.
func TestServeMetricsScrapableDuringSolve(t *testing.T) {
	addr := freePort(t)
	scraped := make(chan struct{})
	out := &gatedWriter{open: scraped}
	closeGate := sync.OnceFunc(func() { close(scraped) })
	defer closeGate()
	done := make(chan error, 1)
	// -stage compare writes its report only after both mode solves, and
	// the report's first Write waits for the scrape: the run cannot end,
	// nor its listener close, before the test has scraped.
	go func() {
		done <- run([]string{"-stage", "compare", "-n", "5000", "-parallel", "1", "-serve-metrics", addr}, out)
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
	closeGate()
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

	if !strings.Contains(out.buf.String(), "--- connected mode ---") {
		t.Errorf("solve output missing the compare report:\n%s", out.buf.String())
	}
}
