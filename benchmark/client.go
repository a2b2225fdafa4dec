package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// client posts to one ripd over at most conns connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	return &client{
		base: strings.TrimRight(base, "/"),
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one body and reads the whole answer.
func (c *client) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	return c.send(ctx, http.MethodPost, path, body)
}

// get reads one endpoint.
func (c *client) get(ctx context.Context, path string) (int, []byte, error) {
	return c.send(ctx, http.MethodGet, path, nil)
}

func (c *client) send(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// sendFunc sends request i of a sequence and reports the nets its answer
// counted (0 when it failed).
type sendFunc func(ctx context.Context, i int) (nets int, ok bool)

// window is what one timed phase measured. Its samples are requests,
// or for chip_batch the nets of its streamed batch.
type window struct {
	// lat is each sample's latency: from its due time in an open loop,
	// from its send time otherwise; nets the nets its answer counted.
	lat  []time.Duration
	nets []int
	// svc is each request's time from send to the last byte of its answer.
	svc []time.Duration
	// timerLag is how late the open-loop generator woke for each due
	// time; sendLag how late each request left, queueing included.
	timerLag, sendLag []time.Duration
	sent              int // requests started
	elapsed           time.Duration
}

// add appends o's samples and requests to w.
func (w *window) add(o *window) {
	w.lat = append(w.lat, o.lat...)
	w.nets = append(w.nets, o.nets...)
	w.svc = append(w.svc, o.svc...)
	w.timerLag = append(w.timerLag, o.timerLag...)
	w.sendLag = append(w.sendLag, o.sendLag...)
	w.sent += o.sent
	w.elapsed += o.elapsed
}

// answered is the number of nets the window's answers counted.
func (w *window) answered() int {
	n := 0
	for _, k := range w.nets {
		n += k
	}
	return n
}

// closedLoop runs conns workers, each sending request n (a shared
// counter) as soon as its previous answer arrived, until n reaches count
// or stop passes (a zero stop never stops early).
func closedLoop(ctx context.Context, conns, count int, stop time.Time, send sendFunc) window {
	var (
		next atomic.Int64
		mu   sync.Mutex
		all  window
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine window
			for ctx.Err() == nil {
				if !stop.IsZero() && time.Now().After(stop) {
					break
				}
				i := int(next.Add(1)) - 1
				if i >= count {
					break
				}
				t0 := time.Now()
				nets, _ := send(ctx, i)
				d := time.Since(t0)
				mine.lat = append(mine.lat, d)
				mine.nets = append(mine.nets, nets)
				mine.svc = append(mine.svc, d)
			}
			mu.Lock()
			all.add(&mine)
			mu.Unlock()
		}()
	}
	wg.Wait()
	all.elapsed = time.Since(start)
	all.sent = min(int(next.Load()), count)
	return all
}

// openLoop sends request i at offset due[i] from the start over conns
// connections, whether or not earlier answers have arrived. A request due
// while every connection is busy waits for the next free one, and its
// latency counts from the due time, so a stall shows in the requests
// queued behind it.
func openLoop(ctx context.Context, conns int, due []time.Duration, send sendFunc) window {
	n := len(due)
	w := window{
		lat: make([]time.Duration, n), nets: make([]int, n), svc: make([]time.Duration, n),
		timerLag: make([]time.Duration, n), sendLag: make([]time.Duration, n),
		sent: n,
	}
	// Sized to the whole schedule so the generator never blocks on busy
	// connections: it must keep its own clock.
	work := make(chan int, n)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				at := start.Add(due[i])
				t0 := time.Now()
				w.sendLag[i] = t0.Sub(at)
				w.nets[i], _ = send(ctx, i)
				end := time.Now()
				w.svc[i] = end.Sub(t0)
				w.lat[i] = end.Sub(at)
			}
		}()
	}
	timer := time.NewTimer(0)
	<-timer.C
feed:
	for i := range due {
		at := start.Add(due[i])
		if d := time.Until(at); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				w.sent = i
				break feed
			}
		}
		w.timerLag[i] = time.Since(at)
		work <- i
	}
	close(work)
	wg.Wait()
	w.elapsed = time.Since(start)
	k := w.sent
	w.lat, w.nets, w.svc = w.lat[:k], w.nets[:k], w.svc[:k]
	w.timerLag, w.sendLag = w.timerLag[:k], w.sendLag[:k]
	return w
}
