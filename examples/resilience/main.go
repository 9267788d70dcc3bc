// Resilience: stream a what-if analysis from the mcastd planning
// daemon — upload a platform, then POST /v1/whatif and watch the
// per-scenario NDJSON lines arrive as the shard pool evaluates node
// failures, link failures and source promotions on warm-started
// evaluators, followed by the criticality summary.
//
// By default the example starts an in-process daemon on a loopback
// listener so it is self-contained; point it at a running daemon with
//
//	go run ./examples/resilience -addr http://localhost:8723
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"

	"repro"
)

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", "", "base URL of a running mcastd (empty starts one in-process)")
	flag.Parse()

	base := *addr
	if base == "" {
		ts := httptest.NewServer(repro.NewPlanServer(repro.ServeConfig{Shards: 2}))
		defer ts.Close()
		base = ts.URL
		fmt.Printf("started in-process daemon at %s\n\n", base)
	}

	// The quickstart platform: a fast relay in front of three clients,
	// plus a slow direct backup link to client0 only.
	platform := `
node source
edge source relay 1
edge source client0 2.5
edge relay client0 0.5
edge relay client1 0.5
edge relay client2 0.5
`
	post(base+"/v1/platforms", repro.PlatformUpload{
		ID: "quickstart", Platform: platform, Source: "source",
	})

	req := repro.WhatifRequest{
		PlanSpec: repro.PlanSpec{
			PlatformID: "quickstart",
			Targets:    []string{"client0", "client1", "client2"},
		},
		EdgeFactors: []float64{0, 4}, // every link failure, every link 4x slower
	}
	data, err := json.Marshal(req)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/whatif", "application/json", bytes.NewReader(data))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("whatif: %s", resp.Status)
	}

	// Stream the NDJSON lines as they arrive: baseline, one line per
	// scenario in deterministic order, then the summary.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line struct {
			Kind          string                     `json:"kind"`
			Scenarios     int                        `json:"scenarios"`
			LBPeriod      float64                    `json:"lb_period"`
			Node          string                     `json:"node"`
			Factor        float64                    `json:"factor"`
			Delta         float64                    `json:"delta"`
			Infeasible    bool                       `json:"infeasible"`
			TreeSurvives  bool                       `json:"tree_survives"`
			TreeSurviving int                        `json:"tree_surviving"`
			Edge          *struct{ From, To string } `json:"edge"`
			CriticalNodes []struct {
				Node  string  `json:"node"`
				Delta float64 `json:"delta"`
			} `json:"critical_nodes"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			log.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		switch line.Kind {
		case "baseline":
			fmt.Printf("baseline: LB period %.3f, %d scenarios queued\n", line.LBPeriod, line.Scenarios)
		case "summary":
			fmt.Printf("summary: MCPH tree survives %d/%d scenarios\n", line.TreeSurviving, line.Scenarios)
			for _, rk := range line.CriticalNodes {
				fmt.Printf("  critical node %-8s delta %+.4f\n", rk.Node, rk.Delta)
			}
		default:
			what := line.Node
			if line.Edge != nil {
				what = line.Edge.From + "->" + line.Edge.To
				if line.Factor != 0 {
					what += fmt.Sprintf(" x%g", line.Factor)
				}
			}
			note := ""
			if line.Infeasible {
				note = "  [multicast infeasible]"
			} else if !line.TreeSurvives {
				note = "  [tree dies]"
			}
			fmt.Printf("  %-14s %-18s delta %+.4f%s\n", line.Kind, what, line.Delta, note)
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
}

func post(url string, body any) {
	data, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode >= 300 {
		log.Fatalf("%s: %s %s", url, resp.Status, out)
	}
	fmt.Printf("uploaded platform (%s)\n", resp.Status)
}
