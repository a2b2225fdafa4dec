package main

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/rip-eda/rip/internal/engine"
	"github.com/rip-eda/rip/internal/server"
)

// TestSmoke runs every workload at a tiny size against an in-process
// server, through the same load loops, oracle, traced replay and kernel
// replay a real run uses.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			m, err := engine.NewMulti(ripdRegistry(), nodes[0], engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(server.New(m, server.Options{}))
			defer srv.Close()
			w, err := buildWorkload(name, 5, tiny)
			if err != nil {
				t.Fatal(err)
			}
			chk := newChecker()
			cl := newClient(srv.URL, w.conns)
			defer cl.close()

			lines, _ := chk.batch(ctx, cl, w.warm)
			if chk.failed > 0 {
				t.Fatalf("set-up batch: %v", chk.examples)
			}
			if err := w.fillLadders(targetsByName(lines)); err != nil {
				t.Fatal(err)
			}
			before, err := scrapeMetrics(ctx, cl)
			if err != nil {
				t.Fatal(err)
			}
			win := drive(ctx, w, cl, chk, w.window)
			after, err := scrapeMetrics(ctx, cl)
			if err != nil {
				t.Fatal(err)
			}
			if win.sent == 0 || win.answered() == 0 || len(win.nets) != len(win.lat) {
				t.Fatalf("window sent %d requests, answered %d nets in %d samples", win.sent, win.answered(), len(win.lat))
			}
			if reqs, ok := delta(before, after, "rip_requests_total"); !ok || reqs < float64(win.sent) {
				t.Errorf("server counted %g requests (present %v), client sent %d", reqs, ok, win.sent)
			}
			items := chk.missOrder[:min(2, len(chk.missOrder))]
			fronts := fetchFronts(ctx, cl, chk, items)
			if err := chk.resolve(ctx, 5, 4); err != nil {
				t.Fatal(err)
			}
			if chk.failed > 0 {
				t.Fatalf("%d of %d checks failed: %v", chk.failed, chk.attempted, chk.examples)
			}

			tr, _, err := traceWorkload(ctx, w, win.sent)
			if err != nil {
				t.Fatal(err)
			}
			if len(tr.failed) > 0 {
				t.Fatalf("traced replay: %v", tr.failed[0])
			}
			if want := 4 * len(tr.reqs); len(tr.out) != want {
				t.Errorf("%d spans for %d requests, want %d", len(tr.out), len(tr.reqs), want)
			}
			rp, err := kernelReplay(items, fronts, tr.missBy, time.Now().Add(time.Minute))
			if err != nil {
				t.Fatal(err)
			}
			if len(items) == 0 || !rp.match {
				t.Errorf("kernel replay over %d shapes: match %v", len(items), rp.match)
			}
		})
	}
}
