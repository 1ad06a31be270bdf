// Package footprint is the analytic per-processor cache occupancy model
// used inside the discrete-event scheduler simulation.
//
// Replaying every memory reference through the exact simulator in
// internal/cache is affordable for the Section-4 single-processor
// measurements, but not inside multi-minute, twenty-processor scheduling
// runs. Following Thiebaut & Stone's footprint treatment (which the paper
// cites for exactly this purpose), this package tracks, for each processor,
// the expected number of cache lines each task has resident, with:
//
//   - saturating footprint growth driven by the task's reference pattern
//     (memtrace.Pattern.TouchRate);
//   - proportional eviction: a task's new lines displace other tasks'
//     lines in proportion to their current occupancy;
//   - overlap discounting: of the distinct lines a resuming task touches,
//     a fraction equal to its resident share is assumed still cached.
//
// The model is validated against the exact cache simulator in the package
// tests and in the ablation benchmark (see DESIGN.md §4).
package footprint

import (
	"fmt"
	"math"

	"repro/internal/simtime"
)

// overlapExponent shapes the survival discount in Segment. With exponent 1
// (uniform overlap) the model badly overestimates reload misses at short
// resume intervals, because LRU preferentially evicts a task's stalest
// lines while the resuming task re-touches its freshest lines first.
// Calibration against the exact simulator (see TestModelAgreesWithExactCache
// and cmd/calib) shows an exponent of 1.2 tracks actual reload misses
// within about a factor of two across the 100–400 ms reallocation
// intervals the scheduling experiments operate at.
const overlapExponent = 1.2

// Profile describes a task's reference behaviour; memtrace.Pattern
// implements it.
type Profile interface {
	// TouchRate returns the expected number of distinct lines touched
	// during an execution interval of the given length.
	TouchRate(d simtime.Duration) float64
	// LiveFootprint returns the asymptotic number of distinct lines with
	// cacheable reuse.
	LiveFootprint() int
}

// Cache models one processor's cache occupancy, in (fractional) lines,
// keyed by task identifier. Task identifiers are small non-negative
// integers: they index a dense position table that grows to the largest
// identifier loaded.
//
// Occupancy entries are stored in a slice, in load order, so that the
// proportional-eviction arithmetic iterates tasks in a deterministic order:
// identical simulation runs must produce bitwise identical results.
type Cache struct {
	capacity float64
	pos      []int32 // task -> 1 + its position in entries; 0 when absent
	entries  []entry
	occupied float64
}

type entry struct {
	task  int
	lines float64
}

// minPosLen is the smallest position table a Cache allocates, so the table
// reaches a typical run's task count in one or two allocations.
const minPosLen = 32

// New creates an occupancy model for a cache of the given capacity in
// lines.
func New(capacityLines int) (*Cache, error) {
	if capacityLines <= 0 {
		return nil, fmt.Errorf("footprint: capacity must be positive, got %d", capacityLines)
	}
	return &Cache{capacity: float64(capacityLines)}, nil
}

// MustNew is New for known-good capacities.
func MustNew(capacityLines int) *Cache {
	c, err := New(capacityLines)
	if err != nil {
		panic(err)
	}
	return c
}

// Capacity returns the modelled capacity in lines.
func (c *Cache) Capacity() float64 { return c.capacity }

// find returns task's position in entries.
func (c *Cache) find(task int) (int, bool) {
	if uint(task) >= uint(len(c.pos)) || c.pos[task] == 0 {
		return 0, false
	}
	return int(c.pos[task] - 1), true
}

// Resident returns the expected number of lines task currently has
// resident.
func (c *Cache) Resident(task int) float64 {
	if i, ok := c.find(task); ok {
		return c.entries[i].lines
	}
	return 0
}

// Occupied returns the total expected occupancy in lines.
func (c *Cache) Occupied() float64 { return c.occupied }

// Flush empties the cache.
func (c *Cache) Flush() {
	for _, e := range c.entries {
		c.pos[e.task] = 0
	}
	c.entries = c.entries[:0]
	c.occupied = 0
}

// Reset prepares the cache for a fresh simulation run: occupancy is
// emptied while the entry slice and position table keep their allocated
// capacity, so a cache reused across the replications of an experiment
// cell stops re-growing its internals after the first run.
func (c *Cache) Reset() { c.Flush() }

// remove drops the entry at position i by swapping with the last entry.
func (c *Cache) remove(i int) {
	last := len(c.entries) - 1
	c.pos[c.entries[i].task] = 0
	if i != last {
		c.entries[i] = c.entries[last]
		c.pos[c.entries[i].task] = int32(i + 1)
	}
	c.entries = c.entries[:last]
}

// Evict removes all of task's lines (e.g. on task exit).
func (c *Cache) Evict(task int) {
	if i, ok := c.find(task); ok {
		c.occupied -= c.entries[i].lines
		c.remove(i)
	}
}

// Invalidate removes up to lines of task's residency, modelling coherency
// invalidations when another processor writes lines this task has cached.
// It returns the number of lines actually invalidated.
func (c *Cache) Invalidate(task int, lines float64) float64 {
	if lines <= 0 {
		return 0
	}
	i, ok := c.find(task)
	if !ok {
		return 0
	}
	if lines >= c.entries[i].lines {
		removed := c.entries[i].lines
		c.occupied -= removed
		c.remove(i)
		return removed
	}
	c.entries[i].lines -= lines
	c.occupied -= lines
	return lines
}

// Load installs lines for task, displacing other tasks' lines
// proportionally to their occupancy when the cache is full. The task's own
// residency is capped at capacity.
func (c *Cache) Load(task int, lines float64) {
	if lines <= 0 {
		return
	}
	r := c.Resident(task)
	target := r + lines
	if target > c.capacity {
		target = c.capacity
	}
	grow := target - r
	if grow <= 0 {
		return
	}
	free := c.capacity - c.occupied
	if grow > free {
		// Displace others proportionally to their share of the cache.
		need := grow - free
		others := c.occupied - r
		if others > 0 {
			scale := 1 - need/others
			if scale < 0 {
				scale = 0
			}
			for i := 0; i < len(c.entries); {
				e := &c.entries[i]
				if e.task == task {
					i++
					continue
				}
				nv := e.lines * scale
				c.occupied += nv - e.lines
				if nv < 1e-9 {
					c.occupied -= nv
					c.remove(i)
					continue // a swapped-in entry now occupies slot i
				}
				e.lines = nv
				i++
			}
		}
	}
	if i, ok := c.find(task); ok {
		c.entries[i].lines += grow
	} else {
		if task >= len(c.pos) {
			pos := make([]int32, max(task+1, 2*len(c.pos), minPosLen))
			copy(pos, c.pos)
			c.pos = pos
		}
		c.entries = append(c.entries, entry{task: task, lines: r + grow})
		c.pos[task] = int32(len(c.entries))
	}
	c.occupied += grow
	if c.occupied > c.capacity {
		c.occupied = c.capacity
	}
}

// Segment computes the expected number of cache misses when a task with
// profile p executes the compute interval [t0, t1) of its current
// scheduling dispatch, having had r0 lines resident at dispatch time.
//
// Coverage is measured from the start of the dispatch: the task touches
// TouchRate(t1) − TouchRate(t0) distinct lines during the interval, and a
// fraction r0/LiveFootprint of them are assumed still resident.
func Segment(p Profile, t0, t1 simtime.Duration, r0 float64) float64 {
	if t1 <= t0 {
		return 0
	}
	touched := p.TouchRate(t1) - p.TouchRate(t0)
	if touched <= 0 {
		return 0
	}
	live := float64(p.LiveFootprint())
	if live <= 0 {
		return touched
	}
	frac := 1 - r0/live
	if frac < 0 {
		frac = 0
	}
	return touched * math.Pow(frac, overlapExponent)
}

// RunSegment applies Segment and updates the cache occupancy: the misses
// are installed as new lines for the task. It returns the expected miss
// count.
func (c *Cache) RunSegment(task int, p Profile, t0, t1 simtime.Duration, r0 float64) float64 {
	misses := Segment(p, t0, t1, r0)
	c.Load(task, misses)
	return misses
}

// ReloadEstimate returns the expected misses a task must take to rebuild
// its steady-state footprint from r0 resident lines: the gap between its
// live footprint (capped at capacity) and what survives.
func (c *Cache) ReloadEstimate(p Profile, r0 float64) float64 {
	live := float64(p.LiveFootprint())
	if live > c.capacity {
		live = c.capacity
	}
	gap := live - r0
	if gap < 0 {
		return 0
	}
	return gap
}
