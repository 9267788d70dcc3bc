package graph_test

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/steady"
)

// FuzzDecode feeds arbitrary text to Decode, which must never panic.
// Whenever it decodes a graph, encoding that graph and decoding the
// text again must give back the same text and the same platform
// fingerprint (the key of the serving layer's registry and caches).
func FuzzDecode(f *testing.F) {
	f.Add("edge a b NaN\n")
	f.Add("# platform\nlink a b 2\n\nedge b c 1\n")
	for _, text := range graph.SeedPlatforms() {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := graph.Decode(strings.NewReader(src))
		if err != nil {
			return
		}
		text := g.String()
		g2, err := graph.Decode(strings.NewReader(text))
		if err != nil {
			t.Fatalf("decoding the encoding of %q: %v\n%s", src, err, text)
		}
		if again := g2.String(); again != text {
			t.Fatalf("encoding changed on a round trip:\n%s\nvs\n%s", text, again)
		}
		if a, b := steady.Fingerprint(g), steady.Fingerprint(g2); a != b {
			t.Fatalf("fingerprint changed on a round trip: %#x vs %#x\n%s", a, b, text)
		}
	})
}
