package graph

// SeedPlatforms returns the platforms this package's tests build, in
// the text format, for the seed corpus of FuzzDecode.
func SeedPlatforms() []string {
	d, _, _, _, _ := newDiamond()
	ds, _, _, _, _, _, _ := diamondWithShortcut()
	c, _ := chain(6)
	return []string{d.String(), ds.String(), c.String()}
}
