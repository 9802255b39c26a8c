package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"primelabel/internal/server/trace"
)

// buildLabeld compiles cmd/labeld from the source tree into workdir.
func buildLabeld(workdir string) (string, error) {
	bin := filepath.Join(workdir, "labeld")
	cmd := exec.Command("go", "build", "-o", bin, "primelabel/cmd/labeld")
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build labeld: %w", err)
	}
	return bin, nil
}

// labeld is one running labeld child process.
type labeld struct {
	cmd     *exec.Cmd
	base    string
	dataDir string
	drained chan struct{} // closed once the child's stdout hit EOF
	once    sync.Once
}

func (s *labeld) pid() int { return s.cmd.Process.Pid }

// stop kills the process, waits for it, and removes its data dir.
func (s *labeld) stop() {
	s.once.Do(func() {
		_ = s.cmd.Process.Kill() // already gone is fine: Wait reaps it either way
		_ = s.cmd.Wait()
		<-s.drained
		if s.dataDir != "" {
			os.RemoveAll(s.dataDir)
		}
	})
}

// registry tracks every labeld this invocation started, so each exit path
// can stop them all.
type registry struct {
	mu   sync.Mutex
	live map[*labeld]bool
}

// start launches bin on a free loopback port and waits until it serves
// /healthz. dataDir, when set, is removed when the process is stopped.
func (r *registry) start(hc *http.Client, bin string, args []string, dataDir string) (*labeld, error) {
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stdout = pw
	cmd.Stderr = os.Stderr
	killWithParent(cmd)
	if err := cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		return nil, fmt.Errorf("start labeld: %w", err)
	}
	pw.Close()
	s := &labeld{cmd: cmd, dataDir: dataDir, drained: make(chan struct{})}
	r.mu.Lock()
	if r.live == nil {
		r.live = make(map[*labeld]bool)
	}
	r.live[s] = true
	r.mu.Unlock()

	addr := make(chan string, 1)
	go func() {
		defer close(s.drained)
		defer pr.Close()
		sc := bufio.NewScanner(pr)
		found := false
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "labeld: listening on "); ok && !found {
				found = true
				addr <- a
			}
		}
		if !found {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			r.stop(s)
			return nil, errors.New("labeld exited before listening")
		}
		s.base = "http://" + a
	case <-time.After(60 * time.Second):
		r.stop(s)
		return nil, errors.New("labeld did not report a listen address within 60s")
	}
	for start := time.Now(); ; time.Sleep(2 * time.Millisecond) {
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Since(start) > 30*time.Second {
			r.stop(s)
			return nil, fmt.Errorf("labeld at %s never became healthy", s.base)
		}
	}
}

func (r *registry) stop(s *labeld) {
	s.stop()
	r.mu.Lock()
	delete(r.live, s)
	r.mu.Unlock()
}

func (r *registry) stopAll() {
	r.mu.Lock()
	live := make([]*labeld, 0, len(r.live))
	for s := range r.live {
		live = append(live, s)
	}
	r.live = nil
	r.mu.Unlock()
	for _, s := range live {
		s.stop()
	}
}

// setUp starts labeld for the workload, loads the corpus over PUT and
// runs the warm-up pass, returning the server and the time all that took.
func setUp(procs *registry, hc *http.Client, bin, workdir string, w *workload, in *inputs) (*labeld, time.Duration, error) {
	start := time.Now()
	var args []string
	if w.cache != 0 {
		args = append(args, "-cache", strconv.Itoa(w.cache))
	}
	dataDir := ""
	if w.durable {
		var err error
		if dataDir, err = os.MkdirTemp(workdir, "data-"); err != nil {
			return nil, 0, err
		}
		args = append(args, "-data-dir", dataDir)
	}
	s, err := procs.start(hc, bin, args, dataDir)
	if err != nil {
		if dataDir != "" {
			os.RemoveAll(dataDir)
		}
		return nil, 0, err
	}
	if err := roundTrip(hc, http.MethodPut, s.base+"/docs/"+docName, in.loadBody, http.StatusCreated); err != nil {
		procs.stop(s)
		return nil, 0, err
	}
	for _, k := range w.warm {
		for q := range in.queries {
			if err := roundTrip(hc, http.MethodPost, s.base+readPath(k), in.readBody[k][q], http.StatusOK); err != nil {
				procs.stop(s)
				return nil, 0, fmt.Errorf("warm-up %s %s: %w", in.ids[q], k, err)
			}
		}
	}
	return s, time.Since(start), nil
}

// setUpMedian sets labeld up n times and returns the last server and the
// median set-up time in seconds. Set-ups the hypervisor disturbed (see
// steal.go) are repeated, up to maxStretch×n set-ups in all.
func setUpMedian(procs *registry, hc *http.Client, bin, workdir string, w *workload, in *inputs, n int) (*labeld, float64, error) {
	var times, disturbed []float64
	for {
		steal0, ok0 := readSteal()
		s, d, err := setUp(procs, hc, bin, workdir, w, in)
		if err != nil {
			return nil, 0, err
		}
		steal1, ok1 := readSteal()
		if !ok0 || !ok1 || float64(steal1-steal0) <= maxStealFrac*float64(runtime.NumCPU())*float64(d) {
			times = append(times, d.Seconds())
		} else {
			disturbed = append(disturbed, d.Seconds())
		}
		if len(times) == n || len(times)+len(disturbed) >= maxStretch*n {
			if len(times) == 0 {
				times = disturbed
			}
			return s, median(times), nil
		}
		procs.stop(s)
	}
}

// roundTrip sends one untimed request and expects status want.
func roundTrip(hc *http.Client, method, u string, body []byte, want int) error {
	req, err := http.NewRequest(method, u, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %.200s", method, req.URL.Path, resp.StatusCode, b)
	}
	return nil
}

// newHTTPClient is the load clients' shared client: at most two
// keep-alive connections to labeld, no compression, no proxy.
func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// scrapeMetrics reads labeld's unlabeled /metrics series.
func scrapeMetrics(hc *http.Client, base string) (map[string]float64, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// fetchTrace returns the spans labeld recorded for one request, nil when
// the trace is not (or no longer) in its ring buffer.
func fetchTrace(hc *http.Client, base, id string) *trace.TraceJSON {
	for attempt := 0; attempt < 5; attempt++ {
		resp, err := hc.Get(base + "/debug/traces?id=" + url.QueryEscape(id))
		if err != nil {
			return nil
		}
		var d trace.Dump
		err = json.NewDecoder(resp.Body).Decode(&d)
		resp.Body.Close()
		if err != nil {
			return nil
		}
		if len(d.Traces) > 0 {
			return &d.Traces[0]
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
