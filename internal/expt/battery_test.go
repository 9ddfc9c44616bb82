package expt

import "testing"

// TestBatteryGeometriesValidate checks every cache geometry the measurement
// battery builds against cache.Config.Validate, the check icachesim applies
// to its flags before building a cache.
func TestBatteryGeometriesValidate(t *testing.T) {
	b := newBattery(1, NeedAll)
	caches := []*perCPUCache{b.word, b.intf, b.simosL1I, b.boardL1I}
	for _, perLine := range b.appDM {
		for _, c := range perLine {
			caches = append(caches, c)
		}
	}
	for _, bySize := range []map[int]*perCPUCache{b.app4W, b.comb4W, b.kern4W} {
		for _, c := range bySize {
			caches = append(caches, c)
		}
	}
	if want := 4 + len(CacheSizesKB)*(len(LineSizes)+3); len(caches) != want {
		t.Fatalf("walked %d battery caches, want %d", len(caches), want)
	}
	for _, c := range caches {
		if err := c.cfg.Validate(); err != nil {
			t.Errorf("%v: %v", c.cfg, err)
		}
	}
}
