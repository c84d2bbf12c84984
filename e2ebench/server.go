package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// pollEvery is the readiness polling interval: small against the
// milliseconds a store build takes, and the same for every commit.
const pollEvery = time.Millisecond

// server is one qagviewd child process on a loopback port.
type server struct {
	cmd  *exec.Cmd
	base string
	log  string
	done chan struct{}
}

// startServer boots qagviewd with the movielens sample plus extra flags and
// returns once /healthz answers, i.e. after sample load and WAL recovery.
func startServer(e *env, extra ...string) (*server, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		s, err := tryStart(e, extra)
		if err == nil {
			return s, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func tryStart(e *env, extra []string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := []string{"-addr", addr, "-sample", "movielens"}
	if e.opts.ratings > 0 {
		args = append(args, "-sample-ratings", strconv.Itoa(e.opts.ratings))
	}
	args = append(args, extra...)
	e.serverSeq++
	logPath := filepath.Join(e.dir, fmt.Sprintf("qagviewd-%d.log", e.serverSeq))
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(e.opts.qagviewd, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark itself be killed, the kernel kills the server.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting qagviewd: %w", err)
	}
	logf.Close() // the child holds its own descriptor
	s := &server{cmd: cmd, base: "http://" + addr, log: logPath, done: make(chan struct{})}
	running.Store(s, true)
	go func() {
		_ = cmd.Wait()
		running.Delete(s)
		close(s.done)
	}()
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return nil, fmt.Errorf("qagviewd exited during start-up: %s", s.tail())
		default:
		}
		if resp, err := hc.Get(s.base + "/healthz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return s, nil
			}
		}
		time.Sleep(pollEvery)
	}
	s.kill()
	return nil, fmt.Errorf("qagviewd did not answer /healthz within 60s: %s", s.tail())
}

// running holds the servers that have not exited yet.
var running sync.Map

// killAll stops every running server and waits for each; an interrupted
// benchmark calls it before exiting.
func killAll() {
	running.Range(func(k, _ any) bool {
		k.(*server).kill()
		return true
	})
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// kill stops the server with SIGKILL (a crash, for the WAL prefill) and
// waits until the process has exited.
func (s *server) kill() {
	if s == nil {
		return
	}
	_ = s.cmd.Process.Kill()
	<-s.done
}

// tail returns the end of the server log, for error messages.
func (s *server) tail() string {
	b, _ := os.ReadFile(s.log)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// statusMB reads a memory line of the server's /proc status, such as
// VmHWM (peak resident set) or VmRSS, in MiB.
func (s *server) statusMB(field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, s.cmd.Process.Pid)
}

// client is one closed-loop load-generator connection: its own transport,
// so each client holds exactly one keep-alive connection.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer
	op   int // current op id, for request spans
	span int // current op span
}

func newClient(base string, tr *tracer) *client {
	t := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: t, Timeout: 60 * time.Second}, tr: tr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// statusError is a response with an unexpected status, such as a refused
// request (429, 503) or a stale session that could not refresh (409).
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("status %d: %s", e.code, strings.TrimSpace(e.body))
}

// call sends one request, drains and returns the body, and fails unless the
// status is want. out, when non-nil, receives the decoded body. label names
// the request span.
func (c *client) call(label, method, path string, body any, want int, out any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	sp := c.tr.begin("http."+label, c.span, c.op)
	resp, err := c.hc.Do(req)
	if err != nil {
		c.tr.end(sp)
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.tr.endBytes(sp, len(b))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return b, &statusError{code: resp.StatusCode, body: string(b)}
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return b, fmt.Errorf("decoding %s %s: %w", method, path, err)
		}
	}
	return b, nil
}

// sessionInfo is the part of GET /v1/sessions/{id} the benchmark reads.
type sessionInfo struct {
	Session        string `json:"session"`
	N              int    `json:"n"`
	Clusters       int    `json:"clusters"`
	DataVersion    uint64 `json:"data_version"`
	StoreReady     bool   `json:"store_ready"`
	StoreError     string `json:"store_error"`
	StoreIntervals int    `json:"store_intervals"`
	Reused         bool   `json:"reused"`
}

// openSession creates a session and returns its create response.
func (c *client) openSession(s sessionSpec) (sessionInfo, error) {
	var info sessionInfo
	_, err := c.call("POST /v1/sessions", "POST", "/v1/sessions", s, http.StatusCreated, &info)
	return info, err
}

// waitReady polls the session until its store is ready at data version
// minVersion or later.
func (c *client) waitReady(id string, minVersion uint64) (sessionInfo, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		var info sessionInfo
		if _, err := c.call("GET /v1/sessions/{id}", "GET", "/v1/sessions/"+id, nil, http.StatusOK, &info); err != nil {
			return info, err
		}
		if info.StoreError != "" {
			return info, fmt.Errorf("session %s store build failed: %s", id, info.StoreError)
		}
		if info.StoreReady && info.DataVersion >= minVersion {
			return info, nil
		}
		if time.Now().After(deadline) {
			return info, errors.New("session " + id + " not ready after 60s")
		}
		time.Sleep(pollEvery)
	}
}

// serverMetrics is the part of GET /metrics the benchmark checks.
type serverMetrics struct {
	Sessions struct {
		Live   int `json:"live"`
		Events struct {
			Builds       int64 `json:"builds"`
			BuildErrors  int64 `json:"build_errors"`
			Deduped      int64 `json:"deduped"`
			Evictions    int64 `json:"evictions"`
			Deletes      int64 `json:"deletes"`
			Refreshes    int64 `json:"refreshes"`
			RefreshNoops int64 `json:"refresh_noops"`
		} `json:"events"`
	} `json:"sessions"`
	PanicsRecovered  int64 `json:"panics_recovered"`
	AdmissionRejects int64 `json:"admission_rejects"`
	WAL              *struct {
		Appends   int64 `json:"appends"`
		Fsyncs    int64 `json:"fsyncs"`
		Bytes     int64 `json:"bytes"`
		SizeBytes int64 `json:"size_bytes"`
	} `json:"wal"`
	Recovery *struct {
		Checkpoints     int64 `json:"checkpoints"`
		RecordsReplayed int64 `json:"records_replayed"`
		SnapshotsLoaded int64 `json:"snapshots_loaded"`
	} `json:"recovery"`
}

func (c *client) metrics() (serverMetrics, error) {
	var m serverMetrics
	_, err := c.call("GET /metrics", "GET", "/metrics", nil, http.StatusOK, &m)
	return m, err
}
