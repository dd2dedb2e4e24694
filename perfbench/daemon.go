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
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one trusthmdd child process on a loopback port.
type daemon struct {
	id   string
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been reaped
	err  error         // Wait's result, valid after done
	log  *os.File
}

// system is a set of daemons forming one deployment: a single node or a
// coordinator (node 0, holding the gob) with joiners that boot empty.
type system struct {
	nodes []*daemon
}

// freePort asks the kernel for an unused loopback port. The port is
// released before the daemon binds it; a collision makes the daemon exit,
// which waitReady reports.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// launch starts n daemons with deployment flags only (address, model,
// verdict directory, cluster identity); every tuning knob keeps its
// default. dir must be fresh: each node gets its own verdict store in it.
// Nodes start one at a time, each once the previous one is in: a joiner
// that dials before the coordinator listens retries only after a whole
// heartbeat interval, and two joins racing on the coordinator can leave
// its published table without one of them until the next membership
// change, so the cluster would never converge.
func launch(c *http.Client, bin, gobPath, dir string, n int) (*system, error) {
	sys := &system{}
	var coordURL string
	for i := 0; i < n; i++ {
		port, err := freePort()
		if err != nil {
			sys.stop()
			return nil, err
		}
		d := &daemon{id: fmt.Sprintf("n%d", i+1), url: fmt.Sprintf("http://127.0.0.1:%d", port), done: make(chan struct{})}
		args := []string{"-addr", fmt.Sprintf("127.0.0.1:%d", port),
			"-verdict-dir", filepath.Join(dir, d.id+"-verdicts")}
		if i == 0 {
			args = append(args, "-load", gobPath)
		}
		if n > 1 {
			args = append(args, "-node-id", d.id, "-advertise", d.url)
			if i == 0 {
				args = append(args, "-coordinator")
				coordURL = d.url
			} else {
				args = append(args, "-join", coordURL)
			}
		}
		if d.log, err = os.Create(filepath.Join(dir, d.id+".log")); err != nil {
			sys.stop()
			return nil, err
		}
		d.cmd = exec.Command(bin, args...)
		d.cmd.Stdout, d.cmd.Stderr = d.log, d.log
		// The kernel kills the daemon if this process dies without
		// reaching its cleanup, so no run leaves a daemon behind.
		d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := d.cmd.Start(); err != nil {
			d.log.Close()
			sys.stop()
			return nil, fmt.Errorf("start %s: %w", bin, err)
		}
		go func() { d.err = d.cmd.Wait(); close(d.done) }()
		sys.nodes = append(sys.nodes, d)
		if n > 1 {
			if err := waitJoined(c, d.url, i+1, sys.exited, time.Minute); err != nil {
				sys.stop()
				return nil, err
			}
		}
	}
	return sys, nil
}

// stop kills and reaps every daemon; it is safe to call more than once.
func (s *system) stop() {
	if s == nil {
		return
	}
	for _, d := range s.nodes {
		_ = d.cmd.Process.Kill() // fails only if already reaped
	}
	for _, d := range s.nodes {
		<-d.done
		d.log.Close()
	}
}

func (s *system) pids() []int {
	out := make([]int, len(s.nodes))
	for i, d := range s.nodes {
		out[i] = d.cmd.Process.Pid
	}
	return out
}

// exited reports the first daemon that has died, if any.
func (s *system) exited() error {
	for _, d := range s.nodes {
		select {
		case <-d.done:
			return fmt.Errorf("daemon %s exited early: %v (log %s)", d.id, d.err, d.log.Name())
		default:
		}
	}
	return nil
}

func (s *system) urls() []string {
	out := make([]string, len(s.nodes))
	for i, d := range s.nodes {
		out[i] = d.url
	}
	return out
}

// waitReady polls until every node answers /healthz and, in a cluster,
// every node's view lists all members alive at one table epoch. exited
// reports a node that died meanwhile.
func waitReady(c *http.Client, urls []string, exited func() error, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if err := exited(); err != nil {
			return err
		}
		if ready(c, urls) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("nodes not ready after %v", timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitJoined polls a cluster node until its own view lists at least
// members alive nodes.
func waitJoined(c *http.Client, url string, members int, exited func() error, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if err := exited(); err != nil {
			return err
		}
		var st clusterStatus
		if _, err := getJSON(c, url+"/v1/cluster", &st); err == nil && st.alive() >= members {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s did not join within %v", url, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func ready(c *http.Client, urls []string) bool {
	var epoch uint64
	for i, u := range urls {
		if _, err := getJSON(c, u+"/healthz", nil); err != nil {
			return false
		}
		if len(urls) == 1 {
			continue
		}
		var st clusterStatus
		if _, err := getJSON(c, u+"/v1/cluster", &st); err != nil {
			return false
		}
		if st.alive() != len(urls) || (i > 0 && st.Table.Epoch != epoch) {
			return false
		}
		epoch = st.Table.Epoch
	}
	return true
}

// clusterStatus is the part of GET /v1/cluster the benchmark reads.
type clusterStatus struct {
	Table struct {
		Epoch   uint64 `json:"epoch"`
		Members []struct {
			State string `json:"state"`
		} `json:"members"`
	} `json:"table"`
	OwnedShards []string `json:"owned_shards"`
}

func (st clusterStatus) alive() int {
	n := 0
	for _, m := range st.Table.Members {
		if m.State == "alive" {
			n++
		}
	}
	return n
}

// ownerOf returns the index of the node owning the model shard.
func ownerOf(c *http.Client, urls []string) (int, error) {
	if len(urls) == 1 {
		return 0, nil
	}
	for i, u := range urls {
		var st clusterStatus
		if _, err := getJSON(c, u+"/v1/cluster", &st); err != nil {
			return 0, err
		}
		for _, sh := range st.OwnedShards {
			if sh == "default" {
				return i, nil
			}
		}
	}
	return 0, errors.New("no node owns shard default")
}

// nodeStats is the part of GET /stats the benchmark reads.
type nodeStats struct {
	Shards       []shardStats `json:"shards"`
	VerdictStore struct {
		Records  int64 `json:"records"`
		Appended int64 `json:"appended"`
		Dropped  int64 `json:"dropped"`
	} `json:"verdict_store"`
}

type shardStats struct {
	Requests        int64 `json:"requests"`
	BatchSamples    int64 `json:"batch_samples"`
	StreamDecisions int64 `json:"stream_decisions"`
	CacheHits       int64 `json:"cache_hits"`
	CacheMisses     int64 `json:"cache_misses"`
}

// served sums the verdicts this node's own fleet produced.
func (n nodeStats) served() int64 {
	var v int64
	for _, sh := range n.Shards {
		v += sh.Requests + sh.BatchSamples + sh.StreamDecisions
	}
	return v
}

func getJSON(c *http.Client, url string, v any) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			return nil, fmt.Errorf("GET %s: %w", url, err)
		}
	}
	return body, nil
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux architecture Go supports.
const clockTick = 100

// procCPU returns the user+system CPU time a process has used, read from
// /proc/<pid>/stat (pid 0 means this process).
func procCPU(pid int) (time.Duration, error) {
	path := "/proc/self/stat"
	if pid != 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/stat"
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// parseStatCPU extracts utime+stime from a /proc/<pid>/stat line. The
// command name (field 2) may hold spaces and parentheses, so fields are
// counted from the last ')'.
func parseStatCPU(b []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command", len(f))
	}
	ut, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	st, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// procHWM returns a process's peak resident set size (VmHWM) in bytes.
func procHWM(pid int) (int64, error) {
	f, err := os.Open("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return parseHWM(f)
}

func parseHWM(r io.Reader) (int64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: bad VmHWM line %q", sc.Text())
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status VmHWM: %w", err)
		}
		return kb << 10, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("proc status: no VmHWM line")
}

// cpuOf sums the CPU time of a set of processes.
func cpuOf(pids []int) (time.Duration, error) {
	var sum time.Duration
	for _, pid := range pids {
		t, err := procCPU(pid)
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}
