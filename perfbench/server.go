package main

import (
	"bufio"
	"bytes"
	"context"
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

// instance is one running mbserve process.
type instance struct {
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been reaped
	err  error         // Wait's result, valid after done
}

// fleet is the set of mbserve processes a workload runs against. The
// generator talks to insts[0] only; the others are cluster peers.
type fleet struct {
	insts []*instance
}

func (f *fleet) front() string { return f.insts[0].url }

// serverGOMAXPROCS is the GOMAXPROCS every mbserve process runs with:
// the host's CPU count, spelled out so the host fingerprint records it.
func serverGOMAXPROCS() int { return hostCPUs() }

// fleetAddrs picks the listen addresses of a fleet. A standalone
// instance takes any free loopback port. Cluster peers need fixed
// addresses: the ring places each peer by hashing its URL, so random
// ports would give every run a different partition of the keys and a
// different share of forwarded work. Peers therefore listen on
// 127.0.0.11, .12 and .13 at the first port of clusterPorts free on all
// three.
func fleetAddrs(size int) ([]string, error) {
	if size == 1 {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		defer ln.Close()
		return []string{ln.Addr().String()}, nil
	}
	for _, port := range clusterPorts {
		addrs := make([]string, size)
		for i := range addrs {
			addrs[i] = fmt.Sprintf("127.0.0.%d:%d", 11+i, port)
		}
		if bindable(addrs) {
			return addrs, nil
		}
	}
	return nil, fmt.Errorf("no port of %v is free on 127.0.0.11–13", clusterPorts)
}

var clusterPorts = []int{47431, 47531, 47631, 47731, 47831}

// bindable reports whether every address can be bound right now.
func bindable(addrs []string) bool {
	ok := true
	for _, a := range addrs {
		ln, err := net.Listen("tcp", a)
		if err != nil {
			ok = false
			continue
		}
		ln.Close()
	}
	return ok
}

// startFleet launches size mbserve processes (1 = standalone, more =
// a static -peers cluster) and waits until every one answers /readyz.
// An address lost to another process between the check and the bind
// is retried.
func startFleet(bin, logDir string, size int) (*fleet, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		f, err := tryStartFleet(bin, logDir, size)
		if err == nil {
			return f, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func tryStartFleet(bin, logDir string, size int) (*fleet, error) {
	addrs, err := fleetAddrs(size)
	if err != nil {
		return nil, err
	}
	urls := make([]string, size)
	for i, a := range addrs {
		urls[i] = "http://" + a
	}
	f := &fleet{}
	for i, u := range urls {
		args := []string{"-addr", addrs[i], "-drain", "2s"}
		if size > 1 {
			args = append(args, "-self", u, "-peers", strings.Join(urls, ","))
		}
		logf, err := os.Create(filepath.Join(logDir, fmt.Sprintf("mbserve-%d.log", i)))
		if err != nil {
			f.stop()
			return nil, err
		}
		cmd := exec.Command(bin, args...)
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serverGOMAXPROCS()))
		cmd.Stdout, cmd.Stderr = logf, logf
		// A benchmark killed mid-run must not leave servers behind.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			logf.Close()
			f.stop()
			return nil, fmt.Errorf("start mbserve: %w", err)
		}
		inst := &instance{url: u, cmd: cmd, done: make(chan struct{})}
		go func() {
			inst.err = cmd.Wait()
			logf.Close()
			close(inst.done)
		}()
		f.insts = append(f.insts, inst)
	}
	deadline := time.Now().Add(20 * time.Second)
	for _, inst := range f.insts {
		if err := inst.waitReady(deadline); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

var probeClient = &http.Client{Timeout: 2 * time.Second}

// waitReady polls GET /readyz until it answers 200.
func (in *instance) waitReady(deadline time.Time) error {
	for {
		select {
		case <-in.done:
			return fmt.Errorf("mbserve %s exited before ready: %v", in.url, in.err)
		default:
		}
		resp, err := probeClient.Get(in.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("mbserve %s not ready after 20s (last error %v)", in.url, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop terminates every process and waits until each has been reaped:
// SIGTERM for a graceful drain, SIGKILL after five seconds.
func (f *fleet) stop() {
	for _, in := range f.insts {
		in.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, in := range f.insts {
		select {
		case <-in.done:
		case <-time.After(5 * time.Second):
			in.cmd.Process.Kill()
			<-in.done
		}
	}
}

// cpuTicks returns the summed user+system CPU time of every process in
// clock ticks (USER_HZ, 100 per second on Linux).
func (f *fleet) cpuTicks() (int64, error) {
	var total int64
	for _, in := range f.insts {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", in.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesised command name; utime and stime
		// are fields 14 and 15 of the whole line.
		rest := data[bytes.LastIndexByte(data, ')')+2:]
		fields := strings.Fields(string(rest))
		if len(fields) < 13 {
			return 0, fmt.Errorf("short /proc/%d/stat", in.cmd.Process.Pid)
		}
		for _, s := range fields[11:13] {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return 0, err
			}
			total += v
		}
	}
	return total, nil
}

const userHZ = 100

// peakRSSMB returns the summed peak resident set (VmHWM) of every
// process, in MiB.
func (f *fleet) peakRSSMB() (float64, error) {
	var kb int64
	for _, in := range f.insts {
		v, err := procStatusKB(in.cmd.Process.Pid, "VmHWM:")
		if err != nil {
			return 0, err
		}
		kb += v
	}
	return float64(kb) / 1024, nil
}

func procStatusKB(pid int, field string) (int64, error) {
	fh, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/%d/status has no %s", pid, field)
}

// post sends one body and returns the status, the response body and
// the X-Cache header.
func post(ctx context.Context, c *http.Client, url string, body []byte) (int, []byte, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, "", err
	}
	return resp.StatusCode, b, resp.Header.Get("X-Cache"), nil
}

// errStatus reports a non-2xx answer during set-up or validation, where
// every request must succeed.
func errStatus(url string, status int, body []byte) error {
	return fmt.Errorf("%s answered %d: %.200s", url, status, body)
}
