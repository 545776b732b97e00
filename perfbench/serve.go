package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"compaqt/client"
)

// server is one compaqt-serve process the benchmark started.
type server struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed when the process has exited

	mu   sync.Mutex
	logs []string // the last stderr lines, for error reports
}

var listenLine = regexp.MustCompile(`listening on (\S+)`)

// startServer runs bin on a loopback port with the given flags and
// waits until it answers /healthz. The process is killed with the
// benchmark if the benchmark dies first.
func startServer(bin string, hc *http.Client, args ...string) (*server, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			if len(s.logs) == 20 {
				s.logs = s.logs[1:]
			}
			s.logs = append(s.logs, line)
			s.mu.Unlock()
			if m := listenLine.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
		_ = cmd.Wait()
		close(s.done)
	}()
	select {
	case a := <-addr:
		s.url = "http://" + a
	case <-s.done:
		return nil, fmt.Errorf("compaqt-serve exited before listening: %s", s.lastLogs())
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("compaqt-serve did not listen within 30s: %s", s.lastLogs())
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		res, err := hc.Get(s.url + "/healthz")
		if err == nil {
			drain(res)
			if res.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("compaqt-serve not healthy within 30s: %v %s", err, s.lastLogs())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *server) lastLogs() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.logs, " | ")
}

// stop asks the server to drain and waits for it to exit, killing it
// if it has not exited within ten seconds.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

func (s *server) peakRSSMB() (float64, error) { return peakRSSMB(s.cmd.Process.Pid) }

// stats fetches /v1/stats.
func (s *server) stats(hc *http.Client) (*client.StatsResponse, error) {
	res, err := hc.Get(s.url + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer drain(res)
	if res.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/stats: %s", res.Status)
	}
	var st client.StatsResponse
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return &st, nil
}

// post sends a pre-encoded JSON body and returns the response body.
func post(ctx context.Context, hc *http.Client, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return do(hc, req)
}

// get fetches url into buf's storage and returns the body.
func get(ctx context.Context, hc *http.Client, url string, buf *bytes.Buffer) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	res, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer drain(res)
	buf.Reset()
	if _, err := buf.ReadFrom(res.Body); err != nil {
		return nil, err
	}
	if res.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, res.Status, bytes.TrimSpace(buf.Bytes()))
	}
	return buf.Bytes(), nil
}

// put uploads wire image bytes under a name.
func put(ctx context.Context, hc *http.Client, url string, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	_, err = do(hc, req)
	return err
}

func do(hc *http.Client, req *http.Request) ([]byte, error) {
	res, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer drain(res)
	b, err := io.ReadAll(res.Body)
	if err != nil {
		return nil, err
	}
	if res.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, res.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

func drain(res *http.Response) {
	_, _ = io.Copy(io.Discard, res.Body)
	res.Body.Close()
}

// newHTTPClient is a keep-alive client for the benchmark's one
// closed-loop caller and its set-up requests.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}}
}
