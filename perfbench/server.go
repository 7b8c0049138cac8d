package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// serverProc is one tuneserve process under test.
type serverProc struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
	// exited closes once the process has been waited for.
	exited chan struct{}
	// readyS is exec-to-ready wall time.
	readyS float64
}

// startServer execs tuneserve with the fixed service settings (two
// workers, default budgets and params) and the given storage flags, and
// waits until /healthz answers.
func startServer(bin, logPath string, storageArgs []string, client *http.Client) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, fmt.Errorf("server log: %w", err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := append([]string{"-addr", addr, "-workers", "2"}, storageArgs...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The server must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("exec %s: %w", bin, err)
	}
	s := &serverProc{cmd: cmd, base: "http://" + addr, log: logf, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(s.exited)
	}()
	deadline := start.Add(60 * time.Second)
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case <-s.exited:
			s.stop()
			return nil, fmt.Errorf("tuneserve exited during start (see %s)", logPath)
		default:
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("tuneserve not ready after 60s (see %s)", logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.readyS = time.Since(start).Seconds()
	return s, nil
}

// stop sends SIGTERM, waits for the graceful drain, and kills the process
// if it has not exited in 15s. Safe to call more than once.
func (s *serverProc) stop() {
	select {
	case <-s.exited:
	default:
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.exited:
		case <-time.After(15 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.exited
		}
	}
	s.log.Close()
}

func (s *serverProc) pid() int { return s.cmd.Process.Pid }

// procUsage reads the server's CPU seconds (utime+stime) and peak RSS.
func procUsage(pid int) (cpuS, rssMB float64, err error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	if cpuS, err = parseProcCPU(string(stat)); err != nil {
		return 0, 0, err
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	rssMB, err = parseVmHWM(string(status))
	return cpuS, rssMB, err
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("picking a port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// newConn returns a client pinned to a single keep-alive connection:
// concurrent requests through it queue for that connection.
func newConn() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// errRefused marks a 429: the server shed the job (queue_full or
// storage_backpressure).
var errRefused = errors.New("refused with 429")

// submitJob POSTs a job and returns its ID.
func submitJob(c *http.Client, base string, spec jobSpec) (string, error) {
	body, _ := json.Marshal(spec)
	resp, err := c.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer drain(resp)
	if resp.StatusCode == http.StatusTooManyRequests {
		return "", errRefused
	}
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("POST /v1/jobs: %s: %s", resp.Status, strings.TrimSpace(string(b)))
	}
	var job struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		return "", fmt.Errorf("POST /v1/jobs: %w", err)
	}
	return job.ID, nil
}

// jobView is the part of GET /v1/jobs/{id} the benchmark checks.
type jobView struct {
	ID          string          `json:"id"`
	State       string          `json:"state"`
	SubmittedAt time.Time       `json:"submittedAt"`
	StartedAt   *time.Time      `json:"startedAt"`
	FinishedAt  *time.Time      `json:"finishedAt"`
	Error       string          `json:"error"`
	Result      json.RawMessage `json:"result"`
}

func getJob(c *http.Client, base, id string) (jobView, error) {
	var v jobView
	resp, err := c.Get(base + "/v1/jobs/" + id)
	if err != nil {
		return v, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("GET /v1/jobs/%s: %s", id, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return v, fmt.Errorf("GET /v1/jobs/%s: %w", id, err)
	}
	return v, nil
}

func (v jobView) terminal() bool { return v.State == "done" || v.State == "failed" }

// streamEvent is what the load generator reads off GET /v1/events.
type streamEvent struct {
	Seq     uint64
	Type    string
	Session string
	At      time.Time
	// Gap marks a jump in sequence numbers: the server dropped events for
	// this slow subscriber, possibly a session_end.
	Gap bool
}

// eventStream holds the server-wide SSE stream on its own connection and
// forwards session_end events and sequence gaps.
type eventStream struct {
	resp *http.Response
	C    chan streamEvent
	done chan struct{}
	// err is set before C closes when the stream broke.
	err error
	// gaps counts dropped events detected from sequence jumps.
	gaps atomic.Uint64
}

func openEvents(c *http.Client, base string) (*eventStream, error) {
	resp, err := c.Get(base + "/v1/events")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		drain(resp)
		return nil, fmt.Errorf("GET /v1/events: %s", resp.Status)
	}
	// The buffer absorbs session_end bursts while the generator is busy
	// on connection B; when it fills, the server drops and a gap shows.
	es := &eventStream{resp: resp, C: make(chan streamEvent, 4096), done: make(chan struct{})}
	go es.read()
	return es, nil
}

func (es *eventStream) read() {
	defer close(es.done)
	defer close(es.C)
	br := bufio.NewReaderSize(es.resp.Body, 64<<10)
	var last uint64
	var ev streamEvent
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !strings.Contains(err.Error(), "closed") {
				es.err = err
			}
			return
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0:
			if ev.Seq == 0 {
				continue
			}
			if last != 0 && ev.Seq != last+1 {
				es.gaps.Add(ev.Seq - last - 1)
				es.C <- streamEvent{Gap: true, At: time.Now()}
			}
			last = ev.Seq
			if ev.Type == "session_end" {
				ev.At = time.Now()
				es.C <- ev
			}
			ev = streamEvent{}
		case bytes.HasPrefix(line, []byte("id: ")):
			ev.Seq, _ = strconv.ParseUint(string(line[4:]), 10, 64)
		case bytes.HasPrefix(line, []byte("event: ")):
			ev.Type = string(line[7:])
		case bytes.HasPrefix(line, []byte("data: ")) && ev.Type == "session_end":
			var d struct {
				Session string `json:"session"`
			}
			if err := json.Unmarshal(line[6:], &d); err != nil {
				es.err = fmt.Errorf("event data: %w", err)
				return
			}
			ev.Session = d.Session
		}
	}
}

// close ends the stream and waits for its reader to exit.
func (es *eventStream) close() {
	es.resp.Body.Close()
	for range es.C {
	}
	<-es.done
}
