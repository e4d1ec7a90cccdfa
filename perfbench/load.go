package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// conns is the closed loop's client count: each caller waits for its
// reply before sending the next request.
const conns = 2

// reply is one completed request of the timed phase.
type reply struct {
	idx      int           // index into the timed corpus
	at       time.Duration // completion time since the window opened
	lat      time.Duration
	status   int
	xcache   string
	body     []byte
	err      error
	inWindow bool // completed inside the measured window
}

// loadResult is what the closed loop observed.
type loadResult struct {
	window  time.Duration
	replies []reply // every request sent, in completion order per caller
	genCPU  time.Duration
}

func newClient() *http.Client {
	// One transport per caller pins each caller to its own keep-alive
	// TCP connection.
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// closedLoop runs conns callers against url for dur. Callers take the
// next request index from a shared counter; a hot workload cycles
// through reqs, a cold one must never run out of them. A request sent
// before the window closes is always waited for, so the server ends the
// run idle; only completions inside the window count towards rates and
// latencies.
func closedLoop(url string, reqs []request, hot bool, dur time.Duration) (*loadResult, error) {
	var (
		next      atomic.Int64
		exhausted atomic.Bool
		wg        sync.WaitGroup
		mu        sync.Mutex
		all       []reply
	)
	clients := make([]*http.Client, conns)
	for i := range clients {
		clients[i] = newClient()
	}
	ctx, cancel := context.WithTimeout(context.Background(), dur+60*time.Second)
	defer cancel()
	cpu0 := selfCPU()
	t0 := time.Now()
	for c := range conns {
		wg.Add(1)
		go func(client *http.Client) {
			defer wg.Done()
			var mine []reply
			for time.Since(t0) < dur {
				i := int(next.Add(1) - 1)
				if !hot && i >= len(reqs) {
					exhausted.Store(true)
					break
				}
				rq := reqs[i%len(reqs)]
				start := time.Now()
				status, body, xc, err := post(ctx, client, url+rq.path, rq.body)
				end := time.Now()
				mine = append(mine, reply{idx: i, at: end.Sub(t0), lat: end.Sub(start), status: status,
					xcache: xc, body: body, err: err, inWindow: end.Sub(t0) <= dur})
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(clients[c])
	}
	wg.Wait()
	genCPU := selfCPU() - cpu0
	for _, c := range clients {
		c.CloseIdleConnections()
	}
	if exhausted.Load() {
		return nil, fmt.Errorf("timed corpus of %d requests exhausted before %v; raise coldPerSecond", len(reqs), dur)
	}
	return &loadResult{window: dur, replies: all, genCPU: genCPU}, nil
}

// sendAll sends every request once, conns at a time, and fails on the
// first non-2xx answer. It is the untimed warm-up.
func sendAll(url string, reqs []request) error {
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				status, body, _, err := post(context.Background(), client, url+reqs[i].path, reqs[i].body)
				if err == nil && status/100 != 2 {
					err = errStatus(url+reqs[i].path, status, body)
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// selfCPU is this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
