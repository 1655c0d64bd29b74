package main

import (
	"bytes"
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
	if code := run([]string{"-nope"}, &out, &errOut); code != 2 {
		t.Fatalf("bad flag: code = %d, want 2", code)
	}
}

func TestRunUnknownBootScenario(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-run", "sX"}, &out, &errOut); code != 1 {
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

// TestServeBootRun boots the real command on a random port with a
// free-running s2 run and checks /healthz and /metrics answer.
func TestServeBootRun(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	var out, errOut bytes.Buffer
	go run([]string{"-addr", addr, "-pace", "0", "-run", "s2", "-seed", "7"}, &out, &errOut)

	base := "http://" + addr
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			var body struct {
				OK   bool `json:"ok"`
				Runs int  `json:"runs"`
			}
			json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if body.OK && body.Runs == 1 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never became healthy; stderr: %s", errOut.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), "viator_run_sim_time{") {
		t.Fatalf("/metrics missing run gauges:\n%s", b)
	}
}
