// Command riploadgen replays a netgen JSONL corpus against a running
// ripd at controlled concurrency and reports the latency distribution,
// throughput, cache hit rate and error breakdown — the load story
// behind a deployment claim, measured rather than asserted.
//
// Each corpus line is one wire-format request (what `netgen -jsonl`
// emits and /v1/batch consumes); riploadgen posts them individually to
// /v1/optimize so every request pays full HTTP round-trip cost, the way
// real interactive clients do. -repeat N replays the corpus N times,
// which turns a cold first pass into a warm steady state and makes the
// hit rate meaningful.
//
// Usage:
//
//	netgen -jsonl -count 2000 -target 1.3 > corpus.jsonl
//	riploadgen -url http://localhost:8080 -corpus corpus.jsonl -concurrency 64 -repeat 3
//	riploadgen -corpus corpus.jsonl -o BENCH_6.json -name cluster_3x
//
// The report is written as rip-perf/1 JSON (the BENCH_*.json schema) to
// -o, or summarized on stdout without it.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rip-eda/rip/internal/api"
)

func main() {
	var (
		url         = flag.String("url", "http://localhost:8080", "ripd base URL")
		corpus      = flag.String("corpus", "", "JSONL corpus file (netgen -jsonl output; \"-\" = stdin)")
		concurrency = flag.Int("concurrency", 32, "in-flight requests")
		repeat      = flag.Int("repeat", 1, "times to replay the corpus (first pass is cold, later passes warm)")
		timeout     = flag.Duration("timeout", 2*time.Minute, "per-request timeout")
		out         = flag.String("o", "", "write the rip-perf/1 JSON report here (default: summary on stdout only)")
		name        = flag.String("name", "loadgen", "report entry name")
		pr          = flag.Int("pr", 6, "PR number stamped into the report")
	)
	flag.Parse()
	if *corpus == "" {
		fatal(fmt.Errorf("-corpus is required"))
	}
	lines, err := readCorpus(*corpus)
	if err != nil {
		fatal(err)
	}
	if len(lines) == 0 {
		fatal(fmt.Errorf("corpus %s holds no requests", *corpus))
	}
	if *concurrency < 1 {
		*concurrency = 1
	}
	if *repeat < 1 {
		*repeat = 1
	}

	r := run(*url, lines, *concurrency, *repeat, *timeout)

	fmt.Fprintf(os.Stderr, "riploadgen: %d requests in %.2fs — %.1f req/s, p50 %.2fms p99 %.2fms p99.9 %.2fms, hit rate %.3f, %d errors\n",
		r.Requests, r.Seconds, r.RequestsPerSec, r.P50Ms, r.P99Ms, r.P999Ms, r.HitRate, r.Errors)
	if len(r.ErrorCodes) > 0 {
		fmt.Fprintf(os.Stderr, "riploadgen: error codes: %v\n", r.ErrorCodes)
	}

	r.Name = *name
	r.Corpus = len(lines)
	r.Concurrency = *concurrency
	r.Repeat = *repeat
	report := map[string]any{
		"schema":       "rip-perf/1",
		"pr":           *pr,
		"generated_at": time.Now().UTC().Format(time.RFC3339),
		"go_version":   runtime.Version(),
		"goos":         runtime.GOOS,
		"goarch":       runtime.GOARCH,
		"cpus":         runtime.NumCPU(),
		"load":         []loadResult{r},
	}
	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "riploadgen: report written to %s\n", *out)
}

// loadResult is one rip-perf/1 "load" entry.
type loadResult struct {
	Name           string         `json:"name"`
	Corpus         int            `json:"corpus_nets"`
	Concurrency    int            `json:"concurrency"`
	Repeat         int            `json:"repeat"`
	Requests       int            `json:"requests"`
	Seconds        float64        `json:"seconds"`
	RequestsPerSec float64        `json:"requests_per_sec"`
	P50Ms          float64        `json:"p50_ms"`
	P99Ms          float64        `json:"p99_ms"`
	P999Ms         float64        `json:"p999_ms"`
	CacheHits      uint64         `json:"cache_hits"`
	HitRate        float64        `json:"hit_rate"`
	Errors         uint64         `json:"errors"`
	ErrorCodes     map[string]int `json:"error_codes,omitempty"`
}

// run replays the corpus repeat times at the given concurrency and
// aggregates the outcome. Latencies are recorded per request slot (a
// unique index per request), so no lock sits on the hot path.
func run(baseURL string, lines [][]byte, concurrency, repeat int, timeout time.Duration) loadResult {
	total := len(lines) * repeat
	latencies := make([]time.Duration, total)
	var hits, errs atomic.Uint64
	var mu sync.Mutex
	codes := make(map[string]int)

	client := &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: concurrency,
			IdleConnTimeout:     90 * time.Second,
		},
	}

	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				body := lines[i%len(lines)]
				t0 := time.Now()
				hit, code := post(client, baseURL+"/v1/optimize", body)
				latencies[i] = time.Since(t0)
				if hit {
					hits.Add(1)
				}
				if code != "" {
					errs.Add(1)
					mu.Lock()
					codes[code]++
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < total; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(start)

	slices.Sort(latencies)
	r := loadResult{
		Requests:       total,
		Seconds:        elapsed.Seconds(),
		RequestsPerSec: float64(total) / elapsed.Seconds(),
		P50Ms:          percentile(latencies, 0.50),
		P99Ms:          percentile(latencies, 0.99),
		P999Ms:         percentile(latencies, 0.999),
		CacheHits:      hits.Load(),
		Errors:         errs.Load(),
	}
	if ok := total - int(r.Errors); ok > 0 {
		r.HitRate = float64(r.CacheHits) / float64(ok)
	}
	if len(codes) > 0 {
		r.ErrorCodes = codes
	}
	return r
}

// post sends one request and classifies the outcome: hit reports a
// served cache hit, code is the envelope error code ("" on success,
// "transport" when no decodable response came back at all).
func post(client *http.Client, url string, body []byte) (hit bool, code string) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return false, "transport"
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return false, "transport"
	}
	var out api.Response
	if err := json.Unmarshal(raw, &out); err != nil {
		return false, "transport"
	}
	if out.Err != nil {
		return false, out.Err.Code
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		// A non-2xx status whose body carries no error envelope did not
		// come from ripd's handler (a proxy or LB answered instead);
		// counting it as a success would inflate the hit-rate base.
		return false, "transport"
	}
	return out.CacheHit, ""
}

// percentile reads the q-quantile from sorted latencies, in
// milliseconds (nearest-rank).
func percentile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// Nearest-rank is the ⌈q·n⌉-th smallest sample, i.e. index
	// ⌈q·n⌉−1. Truncating q·n instead lands one rank high whenever
	// q·n is exact — p50 of [1 2 3 4] must be 2, not 3.
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / float64(time.Millisecond)
}

// readCorpus loads the JSONL corpus, skipping blank lines.
func readCorpus(path string) ([][]byte, error) {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	var lines [][]byte
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		lines = append(lines, append([]byte(nil), line...))
	}
	return lines, sc.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "riploadgen:", err)
	os.Exit(1)
}
