package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestRunBadFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(context.Background(), []string{"-nope"}, &out, &errOut); code != 2 {
		t.Fatalf("bad flag: code = %d, want 2", code)
	}
}

func TestRunUnknownBootScenario(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(context.Background(), []string{"-run", "sX"}, &out, &errOut); code != 1 {
		t.Fatalf("unknown -run: code = %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "unknown scenario") {
		t.Fatalf("stderr = %q, want unknown-scenario message", errOut.String())
	}
}

// TestHTTPServerTimeouts pins that the command's listener bounds how long
// a client may take to send its request headers.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(":0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != 10*time.Second {
		t.Fatalf("ReadHeaderTimeout = %v, want 10s", srv.ReadHeaderTimeout)
	}
}

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startRun runs the command with args in the background until the
// returned stop is called; stop cancels its context and returns the exit
// code and standard error. It waits until /healthz reports wantRuns runs.
func startRun(t *testing.T, addr string, wantRuns int, args ...string) (stop func() (int, string)) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var out, errOut bytes.Buffer
	code := make(chan int, 1)
	go func() { code <- run(ctx, append([]string{"-addr", addr}, args...), &out, &errOut) }()
	stop = func() (int, string) {
		cancel()
		c := <-code
		return c, errOut.String()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			var body struct {
				OK   bool `json:"ok"`
				Runs int  `json:"runs"`
			}
			json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if body.OK && body.Runs == wantRuns {
				return stop
			}
		}
		if time.Now().After(deadline) {
			_, stderr := stop()
			t.Fatalf("server never became healthy; stderr: %s", stderr)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServeBootRun boots the real command on a random port with a
// free-running s2 run and checks /healthz and /metrics answer.
func TestServeBootRun(t *testing.T) {
	addr := freeAddr(t)
	stop := startRun(t, addr, 1, "-pace", "0", "-run", "s2", "-seed", "7")
	defer stop()

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), "viator_run_sim_time{") {
		t.Fatalf("/metrics missing run gauges:\n%s", b)
	}
}

// TestRunShutdownOnCancel pins the graceful stop: cancelling run's
// context, as SIGINT or SIGTERM does, ends an open stream (its headers
// are in, so its handler is running), closes the listener and exits 0
// well within the grace period.
func TestRunShutdownOnCancel(t *testing.T) {
	addr := freeAddr(t)
	stop := startRun(t, addr, 0, "-pace", "0")

	resp, err := http.Get("http://" + addr + "/api/v1/stream")
	if err != nil {
		stop()
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		stop()
		t.Fatalf("stream status %d, want 200", resp.StatusCode)
	}

	began := time.Now()
	code, stderr := stop()
	if code != 0 {
		t.Fatalf("exit code %d after cancel, want 0; stderr: %s", code, stderr)
	}
	if took := time.Since(began); took >= shutdownGrace {
		t.Fatalf("shutdown took %v: the open stream held it to the grace period", took)
	}
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Close()
		t.Fatal("listener still accepts connections after shutdown")
	}
}
