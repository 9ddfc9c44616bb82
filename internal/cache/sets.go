package cache

import "math/bits"

// Sets is the set-associative LRU core under every cache model: the
// instruction caches, the iTLBs (one fully associative set of pages) and the
// data and unified second-level caches of the memory system. It tracks line
// tags, last-use times and one caller-defined metadata byte per frame; the
// models layer their statistics on top. Frames are flattened as
// set*assoc+way.
type Sets struct {
	lineShift uint
	setMask   uint64
	assoc     int

	tags    []uint64 // line number + 1; 0 = invalid
	lastUse []uint64
	meta    []uint8
	clock   uint64
	// mru is the frame of the most recent access. A line lives in at most
	// one frame and an invalid frame's zero tag never matches, so checking
	// it first is exact; it skips the set scan on repeat accesses, which
	// matters for the wide iTLB sets.
	mru int
}

// NewSets creates the core for cfg's geometry (WordStats is ignored). It
// panics on a geometry Validate rejects; check user-supplied configs with
// Validate first.
func NewSets(cfg Config) *Sets {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	frames := cfg.SizeBytes / cfg.LineBytes
	return &Sets{
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setMask:   uint64(frames/cfg.Assoc - 1),
		assoc:     cfg.Assoc,
		tags:      make([]uint64, frames),
		lastUse:   make([]uint64, frames),
		meta:      make([]uint8, frames),
	}
}

// LineOf maps an address to its line number.
func (s *Sets) LineOf(addr uint64) uint64 { return addr >> s.lineShift }

// LineAddr maps a line number to its first address.
func (s *Sets) LineAddr(line uint64) uint64 { return line << s.lineShift }

// Access looks up a line and makes it most recently used. On a miss it fills
// the last invalid frame of the line's set, or else the least recently used
// one, with the given metadata, and reports the metadata of the valid line
// it displaced (hadVictim false for a fill into an invalid frame). frame is
// the frame now holding the line.
func (s *Sets) Access(line uint64, fill uint8) (frame int, hit bool, victimMeta uint8, hadVictim bool) {
	s.clock++
	tag := line + 1
	if s.tags[s.mru] == tag {
		s.lastUse[s.mru] = s.clock
		return s.mru, true, s.meta[s.mru], false
	}
	base := int(line&s.setMask) * s.assoc
	way := -1 // the victim: the set's last invalid way, else its LRU way
	for w, t := range s.tags[base : base+s.assoc] {
		if t == tag {
			f := base + w
			s.lastUse[f] = s.clock
			s.mru = f
			return f, true, s.meta[f], false
		}
		if t == 0 {
			way = w
		}
	}
	if way < 0 {
		way = 0
		oldest := s.lastUse[base]
		for w, u := range s.lastUse[base : base+s.assoc] {
			if u < oldest {
				way, oldest = w, u
			}
		}
	}
	victim := base + way
	hadVictim = s.tags[victim] != 0
	victimMeta = s.meta[victim]
	s.tags[victim] = tag
	s.lastUse[victim] = s.clock
	s.meta[victim] = fill
	s.mru = victim
	return victim, false, victimMeta, hadVictim
}

// Invalidate removes the line if it is resident and reports whether it was.
func (s *Sets) Invalidate(line uint64) bool {
	base := int(line&s.setMask) * s.assoc
	tag := line + 1
	for f := base; f < base+s.assoc; f++ {
		if s.tags[f] == tag {
			s.tags[f] = 0
			return true
		}
	}
	return false
}
