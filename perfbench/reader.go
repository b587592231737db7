package main

import (
	"encoding/json"
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// reader is the observatory workload's open-loop client. Read i is due at
// start + i×interval, a schedule fixed before the run; the reader never
// skips a slot, so a read that stalls makes the following reads late, and
// every read's latency is measured from when it was due. Reads alternate
// between the fleet-federated /modalities and the live run's
// /runs/{id}/modalities.
type reader struct {
	client   *http.Client
	base     string
	live     *atomic.Pointer[string]
	interval time.Duration
	stopAt   atomic.Int64 // unix nanos; reads due at or after it are not made
	wake     chan struct{}
	done     chan struct{}

	// Owned by the reader goroutine until done is closed.
	latMS  []float64 // completion minus due time
	lateMS []float64 // send minus due time
	failed int
}

func startReader(addr string, interval time.Duration, live *atomic.Pointer[string]) *reader {
	r := &reader{
		client: &http.Client{
			Timeout:   10 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		},
		base:     "http://" + addr,
		live:     live,
		interval: interval,
		wake:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go r.loop(time.Now())
	return r
}

func (r *reader) loop(start time.Time) {
	defer close(r.done)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * r.interval)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-r.wake:
				if !timer.Stop() {
					<-timer.C
				}
			}
		}
		if stop := r.stopAt.Load(); stop != 0 && due.UnixNano() >= stop {
			return
		}
		path := "/modalities"
		if id := r.live.Load(); id != nil && i%2 == 1 {
			path = "/runs/" + *id + "/modalities"
		}
		sent := time.Now()
		ok := r.get(path)
		r.lateMS = append(r.lateMS, float64(sent.Sub(due))/1e6)
		r.latMS = append(r.latMS, float64(time.Since(due))/1e6)
		if !ok {
			r.failed++
		}
	}
}

// get reports whether the read returned 200 with a JSON body.
func (r *reader) get(path string) bool {
	resp, err := r.client.Get(r.base + path)
	if err != nil {
		return false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return err == nil && resp.StatusCode == http.StatusOK && json.Valid(body)
}

// stop ends the schedule at the current instant: reads due before now are
// still made. It returns once the reader goroutine has exited.
func (r *reader) stop() {
	r.stopAt.Store(time.Now().UnixNano())
	close(r.wake)
	<-r.done
	r.client.CloseIdleConnections()
}
