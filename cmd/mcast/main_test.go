package main

import (
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/whatif"
)

func promotion(node graph.NodeID, throughput, delta float64) whatif.Result {
	return whatif.Result{
		Scenario:   whatif.Scenario{Kind: whatif.KindPromoteSource, Node: node},
		Throughput: throughput,
		Delta:      delta,
	}
}

// TestBestPromotion pins how mcast -whatif names its best source
// promotion: the largest delta, with deltas within 1e-9 of it (relative)
// tied and the tie going to the first promotion in scenario order.
func TestBestPromotion(t *testing.T) {
	nodeFailure := whatif.Result{Scenario: whatif.Scenario{Kind: whatif.KindNodeFailure, Node: 9}, Delta: 1}
	failed := promotion(8, 0.5, 0.4)
	failed.Err = errors.New("solve failed")
	for _, tc := range []struct {
		name    string
		results []whatif.Result
		want    int
	}{
		{"none", []whatif.Result{nodeFailure}, -1},
		{"only failures", []whatif.Result{failed}, -1},
		{"clear winner", []whatif.Result{nodeFailure, promotion(1, 0.1, 0.001), promotion(2, 0.2, 0.002)}, 2},
		// Node 1 trails node 2 by float noise (the small/1 case: both
		// +0.000994), so the earlier scenario wins.
		{"noise tie", []whatif.Result{promotion(1, 0.0104, 0.000994), promotion(2, 0.0104, 0.000994+2e-17)}, 0},
		{"gain beyond the tolerance", []whatif.Result{promotion(1, 0.0104, 0.000994), promotion(2, 0.0104, 0.000994+1e-9)}, 1},
		// With no gain at all the tolerance scales with the throughput.
		{"zero-gain tie", []whatif.Result{promotion(1, 0.5, -1e-17), promotion(2, 0.5, 1e-17)}, 0},
		{"failed promotion skipped", []whatif.Result{failed, promotion(3, 0.1, 0.001)}, 1},
	} {
		if got := bestPromotion(tc.results); got != tc.want {
			t.Errorf("%s: bestPromotion = %d, want %d", tc.name, got, tc.want)
		}
	}
}
