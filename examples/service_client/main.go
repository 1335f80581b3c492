// Example service_client starts trapd in-process, walks the HTTP API —
// parse, explain, advise — then submits an async assessment job and
// follows its progress live over the SSE stream
// (GET /v1/jobs/{id}/events) instead of polling. Halfway through it
// deliberately drops the connection and reconnects with Last-Event-ID
// to show lossless resume, then prints the advisor's IUDR plus a few
// metrics. It doubles as a smoke test for the streaming job path.
//
// Run with:
//
//	go run ./examples/service_client
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"

	"github.com/trap-repro/trap/internal/assess"
	"github.com/trap-repro/trap/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "service_client:", err)
		os.Exit(1)
	}
}

func run() error {
	// Shrink the quick parameters so the whole walkthrough finishes in
	// seconds; a real deployment runs `trapd -scale quick` or full.
	p := assess.QuickParams()
	p.Templates = 8
	p.TrainWorkloads = 3
	p.TestWorkloads = 3
	p.WorkloadSize = 4
	p.UtilitySamples = 300
	p.PretrainPairs = 4
	p.PretrainEpochs = 1
	p.RLEpochs = 3

	fmt.Println("building tpch suite (workloads + utility model)...")
	srv, err := service.NewServer(service.Config{
		Datasets: []string{"tpch"},
		Params:   p,
		Seed:     42,
		Workers:  2,
	})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fmt.Println("trapd listening on", ts.URL)

	// 1. Parse.
	var parsed struct {
		Query  string `json:"query"`
		Tokens int    `json:"tokens"`
	}
	sql := "SELECT lineitem.l_quantity FROM lineitem WHERE lineitem.l_orderkey = 5"
	if err := post(ts.URL+"/v1/parse", map[string]any{"sql": sql}, &parsed); err != nil {
		return err
	}
	fmt.Printf("parsed (%d tokens): %s\n", parsed.Tokens, parsed.Query)

	// 2. Explain under a hypothetical index.
	var explained struct {
		EstimatedCost float64 `json:"estimatedCost"`
		RuntimeCost   float64 `json:"runtimeCost"`
	}
	err = post(ts.URL+"/v1/explain", map[string]any{
		"dataset": "tpch", "sql": sql, "indexes": []string{"lineitem(l_orderkey)"},
	}, &explained)
	if err != nil {
		return err
	}
	fmt.Printf("explain: what-if cost %.1f, runtime stand-in %.1f\n",
		explained.EstimatedCost, explained.RuntimeCost)

	// 3. Advise.
	var advised struct {
		Indexes           []string `json:"indexes"`
		WhatIfImprovement float64  `json:"whatIfImprovement"`
	}
	err = post(ts.URL+"/v1/advise", map[string]any{
		"dataset": "tpch", "advisor": "Extend",
		"queries": []string{sql, "SELECT orders.o_totalprice FROM orders WHERE orders.o_custkey = 7"},
	}, &advised)
	if err != nil {
		return err
	}
	fmt.Printf("advise: Extend recommends %v (what-if improvement %.1f%%)\n",
		advised.Indexes, 100*advised.WhatIfImprovement)

	// 4. Async robustness assessment: submit, then follow the live SSE
	// progress stream instead of polling. The stream carries state
	// transitions, per-epoch training progress and per-workload cell
	// completions, and ends with the result.
	var job service.Job
	err = post(ts.URL+"/v1/assess", map[string]any{
		"dataset": "tpch", "advisor": "Extend", "method": "TRAP", "constraint": "shared",
	}, &job)
	if err != nil {
		return err
	}
	fmt.Printf("assessment %s submitted (status %s); streaming progress...\n", job.ID, job.Status)
	eventsURL := ts.URL + "/v1/jobs/" + job.ID + "/events"

	// First connection: drop it on purpose after a couple of epoch
	// events to demonstrate reconnect semantics.
	var result *service.JobResult
	epochs := 0
	lastID, err := streamEvents(eventsURL, 0, func(ev string, e service.JobEvent) bool {
		printEvent(ev, e)
		if ev == "result" {
			result = e.Result
		}
		if ev == "epoch" {
			epochs++
		}
		return epochs < 2 // false drops the connection mid-stream
	})
	if err != nil {
		return err
	}
	if result == nil {
		fmt.Printf("  (connection dropped on purpose; resuming from Last-Event-ID %d)\n", lastID)
		_, err = streamEvents(eventsURL, lastID, func(ev string, e service.JobEvent) bool {
			printEvent(ev, e)
			if ev == "result" {
				result = e.Result
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	if result == nil {
		if err := get(ts.URL+"/v1/jobs/"+job.ID, &job); err != nil {
			return err
		}
		return fmt.Errorf("job ended %s: %s", job.Status, job.Error)
	}
	fmt.Printf("TRAP vs Extend on tpch: mean IUDR %.4f over %d workloads (%d pairs, %dms)\n",
		result.MeanIUDR, result.Workloads, result.Pairs, result.ElapsedMilli)

	// 5. A taste of /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	fmt.Println("selected metrics:")
	for _, line := range strings.Split(string(body), "\n") {
		for _, want := range []string{
			"engine_whatif_calls_total", "engine_plan_cache_hit_ratio",
			`trapd_span_seconds_count{span="rl.epoch"}`, "trapd_jobs_done_total",
		} {
			if strings.HasPrefix(line, want) {
				fmt.Println(" ", line)
			}
		}
	}
	return nil
}

// streamEvents consumes the SSE stream at url, resuming after lastID
// when non-zero, and invokes f for each event. It returns when f asks
// to stop (simulating a dropped connection), or at EOF — the server
// closes the stream once the job is terminal and the backlog is sent.
// The returned ID is the last event seen, ready for Last-Event-ID.
func streamEvents(url string, lastID int64, f func(event string, e service.JobEvent) bool) (int64, error) {
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		return lastID, err
	}
	if lastID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatInt(lastID, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return lastID, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return lastID, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(raw)))
	}
	var id int64
	var event string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, ": "): // heartbeat, ignore
		case strings.HasPrefix(line, "id: "):
			id, _ = strconv.ParseInt(strings.TrimPrefix(line, "id: "), 10, 64)
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var e service.JobEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
				return lastID, fmt.Errorf("bad event payload: %w", err)
			}
			lastID = id
			if !f(event, e) {
				return lastID, nil
			}
		}
	}
	return lastID, sc.Err()
}

func printEvent(event string, e service.JobEvent) {
	switch event {
	case "state":
		fmt.Printf("  [%d] state: %s\n", e.Seq, e.Status)
	case "epoch":
		fmt.Printf("  [%d] training epoch %d done\n", e.Seq, e.Epoch)
	case "cell":
		if e.Workload != nil {
			fmt.Printf("  [%d] workload %d assessed (%d pairs)\n", e.Seq, *e.Workload, e.Pairs)
		}
	case "result":
		fmt.Printf("  [%d] result ready\n", e.Seq)
	}
}

func post(url string, body any, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decode(resp, out)
}

func get(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decode(resp, out)
}

func decode(resp *http.Response, out any) error {
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(raw)))
	}
	return json.Unmarshal(raw, out)
}
