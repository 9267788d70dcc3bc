package steady

import "testing"

// FuzzPoolsAcrossPlatforms drives poolsAcrossPlatforms with
// fuzzer-chosen platform pairs: one evaluator serves platform a, and
// then its pooled cuts and path columns, keyed by source ID only, must
// not change any bound of platform b beyond 1e-9.
func FuzzPoolsAcrossPlatforms(f *testing.F) {
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
		a, xa := poolPlatform(next)
		b, xb := poolPlatform(next)
		if err := poolsAcrossPlatforms(a, xa, b, xb); err != nil {
			t.Fatal(err)
		}
	})
}
