package stackm

import (
	"fmt"
)

// Backing is the stack memory that backs a StackCache — under stack-EM² it
// lives at the thread's native core. Tests use an in-memory slice.
type Backing interface {
	// StackRead returns the word at stack slot idx (0 = bottom).
	StackRead(idx int) uint32
	// StackWrite stores the word at stack slot idx.
	StackWrite(idx int, v uint32)
}

// SliceBacking is a Backing over a growable slice.
type SliceBacking struct{ Words []uint32 }

// StackRead implements Backing.
func (s *SliceBacking) StackRead(idx int) uint32 {
	if idx < 0 || idx >= len(s.Words) {
		panic(fmt.Sprintf("stackm: backing read at %d outside stack of %d", idx, len(s.Words)))
	}
	return s.Words[idx]
}

// StackWrite implements Backing.
func (s *SliceBacking) StackWrite(idx int, v uint32) {
	if idx < 0 {
		panic(fmt.Sprintf("stackm: backing write at %d", idx))
	}
	for idx >= len(s.Words) {
		s.Words = append(s.Words, 0)
	}
	s.Words[idx] = v
}

// StackCache is the hardware top-of-stack cache of §4: "the top few entries
// of each stack are typically cached in registers and backed by a region of
// main memory with overflows and underflows of the stack cache automatically
// and transparently handled in hardware."
//
// The cache holds the hottest `capacity` entries. Push beyond capacity
// spills the coldest cached entry to backing memory; Pop into an empty cache
// refills from backing memory. Spills and refills are counted so the
// interpreter can charge them (and, at a guest core, turn them into forced
// return migrations).
type StackCache struct {
	capacity int
	entries  []uint32 // entries[len-1] is top of stack
	base     int      // backing index of entries[0]
	backing  Backing

	Spills, Refills int64
}

// NewStackCache returns an empty cache of the given capacity over backing.
func NewStackCache(capacity int, backing Backing) *StackCache {
	if capacity <= 0 {
		panic(fmt.Sprintf("stackm: non-positive stack cache capacity %d", capacity))
	}
	if backing == nil {
		panic("stackm: nil backing")
	}
	return &StackCache{capacity: capacity, backing: backing}
}

// Depth returns the total stack depth (cached + backed).
func (s *StackCache) Depth() int { return s.base + len(s.entries) }

// Cached returns the number of entries currently in the cache.
func (s *StackCache) Cached() int { return len(s.entries) }

// Push pushes v, spilling the bottom cached entry if the cache is full.
func (s *StackCache) Push(v uint32) {
	if len(s.entries) == s.capacity {
		s.backing.StackWrite(s.base, s.entries[0])
		copy(s.entries, s.entries[1:])
		s.entries = s.entries[:len(s.entries)-1]
		s.base++
		s.Spills++
	}
	s.entries = append(s.entries, v)
}

// Pop removes and returns the top entry, refilling from backing memory if
// the cache is empty. Popping an empty stack panics: that is a program bug,
// not an architectural event.
func (s *StackCache) Pop() uint32 {
	if len(s.entries) == 0 {
		if s.base == 0 {
			panic("stackm: pop of empty stack")
		}
		s.base--
		s.entries = append(s.entries, s.backing.StackRead(s.base))
		s.Refills++
	}
	v := s.entries[len(s.entries)-1]
	s.entries = s.entries[:len(s.entries)-1]
	return v
}

// Peek returns the entry i positions below the top (0 = top) without
// popping, refilling as needed.
func (s *StackCache) Peek(i int) uint32 {
	if i < 0 || i >= s.Depth() {
		panic(fmt.Sprintf("stackm: peek %d in stack of depth %d", i, s.Depth()))
	}
	pos := len(s.entries) - 1 - i
	if pos >= 0 {
		return s.entries[pos]
	}
	// The entry lives in backing memory.
	s.Refills++
	return s.backing.StackRead(s.Depth() - 1 - i)
}

// Serialize removes the top depth entries for migration, flushing everything
// below them to backing memory — the "migrate only a portion of the stack
// cache ... and flush the rest to the stack memory prior to migration"
// operation. The returned slice is ordered bottom-to-top.
func (s *StackCache) Serialize(depth int) []uint32 {
	if depth < 0 || depth > s.Depth() {
		panic(fmt.Sprintf("stackm: serialize depth %d of stack depth %d", depth, s.Depth()))
	}
	carried := make([]uint32, depth)
	for i := depth - 1; i >= 0; i-- {
		carried[i] = s.Pop()
	}
	// Flush the remaining cached entries.
	for i, v := range s.entries {
		s.backing.StackWrite(s.base+i, v)
		s.Spills++
	}
	s.base = s.Depth()
	s.entries = s.entries[:0]
	return carried
}

// Load installs carried entries (bottom-to-top) on top of the current
// logical stack — the receive side of a migration. remoteDepth is the
// logical depth beneath the carried entries that stays at the origin (zero
// when loading back at the native core over the flushed stack).
func (s *StackCache) Load(carried []uint32, remoteDepth int) {
	if len(carried) > s.capacity {
		panic(fmt.Sprintf("stackm: loading %d entries into capacity %d", len(carried), s.capacity))
	}
	if remoteDepth < 0 {
		panic("stackm: negative remote depth")
	}
	s.base = remoteDepth
	s.entries = append(s.entries[:0], carried...)
}
