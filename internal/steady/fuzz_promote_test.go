package steady

import (
	"slices"
	"testing"

	"repro/internal/graph"
)

// FuzzPromoteWarmVsCold drives promotion trials on fuzzer-chosen small
// platforms (poolPlatform's random trees plus chords and target sets):
// AUGMENTED SOURCES' own trials, then a promotion chain of up to 4
// fuzzer-chosen candidates with sibling trials, each on an evaluator
// that grows its stored path master. Every trial must match a fresh
// evaluator's cold MultiSourceUB to 1e-9, keep every port within the
// period and deliver one message per period to every destination
// (checkPromote).
func FuzzPromoteWarmVsCold(f *testing.F) {
	f.Add([]byte{7, 1, 3, 9, 1, 14, 2, 30, 5, 11, 90, 41})
	f.Add([]byte{12, 3, 250, 8, 61, 3, 17, 99, 4, 200, 33, 12, 7})
	f.Add([]byte{13, 31, 5, 5, 5, 5, 5, 5, 5, 5, 129, 200, 4, 66, 2, 9})
	f.Add([]byte{18, 7, 0, 255, 128, 64, 32, 16, 8, 4, 2, 1, 77, 190})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip()
		}
		pos := 0
		next := func() int {
			b := int(data[pos%len(data)])
			pos++
			return b
		}
		p, _ := poolPlatform(next)
		var tally promoteTally
		if _, err := augmentedSourcesTrials(NewEvaluator(), p, &tally); err != nil {
			t.Fatalf("AUGMENTED SOURCES: %v", err)
		}
		var cands []graph.NodeID
		for _, v := range p.G.ActiveNodes() {
			if v != p.Source {
				cands = append(cands, v)
			}
		}
		ev := NewEvaluator()
		if _, err := ev.MultiSourceUB(p, nil); err != nil {
			t.Fatal(err)
		}
		var chain []graph.NodeID
		for k := 1 + next()%4; k > 0 && len(chain) < len(cands); k-- {
			c := cands[next()%len(cands)]
			for slices.Contains(chain, c) {
				c = cands[(slices.Index(cands, c)+1)%len(cands)]
			}
			if sib := cands[next()%len(cands)]; next()%2 == 0 && sib != c && !slices.Contains(chain, sib) {
				if _, err := checkPromote(ev, p, chain, sib, &tally); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := checkPromote(ev, p, chain, c, &tally); err != nil {
				t.Fatal(err)
			}
			chain = append(chain, c)
		}
	})
}
