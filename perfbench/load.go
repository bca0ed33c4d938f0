package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one request of a load pass.
type sample struct {
	idx             int
	due, sent, done time.Time
	err             error
}

// sleepSlack is how early the generator wakes before a due time and
// then spins. A plain time.Sleep wakes 0.5-1 ms late on Linux, which
// would be charged to every request as latency; nanosleep(2) wakes
// within about 0.1 ms.
const sleepSlack = 80 * time.Microsecond

// sleepUntil waits until due and returns how long it spun.
func sleepUntil(due time.Time) time.Duration {
	if d := time.Until(due) - sleepSlack; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep just spins longer
	}
	start := time.Now()
	for time.Now().Before(due) {
	}
	return time.Since(start)
}

// openLoop sends requests 0..n-1 at a fixed rate from senders
// goroutines, each with one request in flight. Request i is due at
// start + i/rate whether or not earlier requests have finished, so a
// stall delays later requests and their latency, timed from the due
// time, shows it. It returns the samples and the senders' total spin
// time, which is generator CPU time rather than the program's.
func openLoop(rate float64, dur time.Duration, senders int, send func(i int) error) ([]sample, time.Duration) {
	n := int(rate * dur.Seconds())
	out := make([]sample, n)
	interval := float64(time.Second) / rate
	start := time.Now().Add(time.Millisecond)
	var next, spin atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) * interval))
				spin.Add(int64(sleepUntil(due)))
				sent := time.Now()
				err := send(i)
				out[i] = sample{idx: i, due: due, sent: sent, done: time.Now(), err: err}
			}
		}()
	}
	wg.Wait()
	return out, time.Duration(spin.Load())
}

// closedLoop keeps conns requests in flight for dur, each connection
// sending its next request when the previous one completes, and
// returns the requests completed, the failures, and the elapsed time.
// Request indices start at first.
func closedLoop(conns int, dur time.Duration, first int, send func(i int) error) (done, failed int, elapsed time.Duration) {
	var next atomic.Int64
	next.Store(int64(first))
	var nDone, nFailed atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if err := send(int(next.Add(1)) - 1); err != nil {
					nFailed.Add(1)
				}
				nDone.Add(1)
			}
		}()
	}
	wg.Wait()
	return int(nDone.Load()), int(nFailed.Load()), time.Since(start)
}

// latencies splits a pass into latency from the due time, generator
// lateness (sent minus due), and the failed samples.
func latencies(ss []sample) (lat, late []float64, failed []sample) {
	for _, s := range ss {
		late = append(late, float64(s.sent.Sub(s.due))/1e6)
		if s.err != nil {
			failed = append(failed, s)
			continue
		}
		lat = append(lat, float64(s.done.Sub(s.due))/1e6)
	}
	return lat, late, failed
}
