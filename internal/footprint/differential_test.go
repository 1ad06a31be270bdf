package footprint

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/xrand"
)

// refCache is the map-indexed occupancy model the dense position table
// replaced. Its arithmetic and entry order are the contract: the dense
// Cache must reproduce them bit for bit.
type refCache struct {
	capacity float64
	idx      map[int]int
	entries  []entry
	occupied float64
}

func newRefCache(capacity int) *refCache {
	return &refCache{capacity: float64(capacity), idx: make(map[int]int)}
}

func (c *refCache) resident(task int) float64 {
	if i, ok := c.idx[task]; ok {
		return c.entries[i].lines
	}
	return 0
}

func (c *refCache) flush() {
	clear(c.idx)
	c.entries = c.entries[:0]
	c.occupied = 0
}

func (c *refCache) remove(i int) {
	last := len(c.entries) - 1
	delete(c.idx, c.entries[i].task)
	if i != last {
		c.entries[i] = c.entries[last]
		c.idx[c.entries[i].task] = i
	}
	c.entries = c.entries[:last]
}

func (c *refCache) evict(task int) {
	if i, ok := c.idx[task]; ok {
		c.occupied -= c.entries[i].lines
		c.remove(i)
	}
}

func (c *refCache) invalidate(task int, lines float64) float64 {
	if lines <= 0 {
		return 0
	}
	i, ok := c.idx[task]
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

func (c *refCache) load(task int, lines float64) {
	if lines <= 0 {
		return
	}
	r := c.resident(task)
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
					continue
				}
				e.lines = nv
				i++
			}
		}
	}
	if i, ok := c.idx[task]; ok {
		c.entries[i].lines += grow
	} else {
		c.idx[task] = len(c.entries)
		c.entries = append(c.entries, entry{task: task, lines: r + grow})
	}
	c.occupied += grow
	if c.occupied > c.capacity {
		c.occupied = c.capacity
	}
}

// sameOccupancy fails unless c holds the reference's entries in the same
// order with bitwise-equal line counts and the same total.
func sameOccupancy(t *testing.T, ctx string, c *Cache, ref *refCache, maxTask int) {
	t.Helper()
	if len(c.entries) != len(ref.entries) {
		t.Fatalf("%s: %d entries, reference %d", ctx, len(c.entries), len(ref.entries))
	}
	for i, e := range c.entries {
		r := ref.entries[i]
		if e.task != r.task || math.Float64bits(e.lines) != math.Float64bits(r.lines) {
			t.Fatalf("%s: entry %d = %+v, reference %+v", ctx, i, e, r)
		}
	}
	if math.Float64bits(c.Occupied()) != math.Float64bits(ref.occupied) {
		t.Fatalf("%s: occupied = %v, reference %v", ctx, c.Occupied(), ref.occupied)
	}
	for task := -1; task <= maxTask+1; task++ {
		if got, want := c.Resident(task), ref.resident(task); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: Resident(%d) = %v, reference %v", ctx, task, got, want)
		}
	}
}

// TestDenseIndexMatchesMapIndex drives the dense-indexed Cache and the
// map-indexed reference through identical random Load / Invalidate / Evict
// / Flush / Reset sequences, with capacities small enough that loads
// displace (and swap-remove) other tasks' entries, and requires identical
// returned values, entry order and bitwise occupancy after every step.
func TestDenseIndexMatchesMapIndex(t *testing.T) {
	rng := xrand.New(1, 0xf007)
	for run := 0; run < 300; run++ {
		capacity := 1 + rng.Intn(400)
		ntasks := 1 + rng.Intn(150)
		c, ref := MustNew(capacity), newRefCache(capacity)
		for step := 0; step < 400; step++ {
			task := rng.Intn(ntasks)
			lines := rng.Float64() * float64(capacity) * 0.6
			ctx := ""
			switch op := rng.Intn(20); {
			case op < 12:
				c.Load(task, lines)
				ref.load(task, lines)
				ctx = "Load"
			case op < 16:
				got, want := c.Invalidate(task, lines), ref.invalidate(task, lines)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("run %d step %d: Invalidate = %v, reference %v", run, step, got, want)
				}
				ctx = "Invalidate"
			case op < 19:
				c.Evict(task)
				ref.evict(task)
				ctx = "Evict"
			case rng.Intn(2) == 0:
				c.Flush()
				ref.flush()
				ctx = "Flush"
			default:
				c.Reset()
				ref.flush()
				ctx = "Reset"
			}
			sameOccupancy(t, fmt.Sprintf("run %d step %d %s", run, step, ctx), c, ref, ntasks)
		}
	}
}
