package resultcache

import "repro/internal/diskstore"

// Tier names the level of a Tiers chain that served a lookup.
type Tier int

const (
	// TierNone is a miss in every tier.
	TierNone Tier = iota
	// TierMem is a hit in the in-memory LRU.
	TierMem
	// TierDisk is a hit in the persistent store (promoted into memory).
	TierDisk
)

// Tiers is the memory → disk read-through chain every serving path
// uses: campaign bodies and cells in the service, and the execute and
// cell-read paths of fleet coordinators and workers. Either field may be
// nil; a nil tier is skipped. Callers keep their own counters and spans
// and switch on the Tier that Get reports.
type Tiers struct {
	Mem  *Cache
	Disk *diskstore.Store
}

// Get looks key up in memory, then on disk, returning the body, its
// production cost (engine exec nanoseconds) and the tier that served it.
// A disk hit is promoted into memory with its cost, so the next reader
// stops at the first tier.
func (t Tiers) Get(key string) ([]byte, uint64, Tier) {
	if t.Mem != nil {
		if body, costNs, ok := t.Mem.GetCost(key); ok {
			return body, costNs, TierMem
		}
	}
	if t.Disk != nil {
		if body, costNs, ok := t.Disk.Get(key); ok {
			if t.Mem != nil {
				t.Mem.PutCost(key, body, costNs)
			}
			return body, costNs, TierDisk
		}
	}
	return nil, 0, TierNone
}

// Put files body under key in both tiers with its cost. The disk write
// is write-behind and never blocks (see diskstore.Store.Put).
func (t Tiers) Put(key string, body []byte, costNs uint64) {
	if t.Mem != nil {
		t.Mem.PutCost(key, body, costNs)
	}
	if t.Disk != nil {
		t.Disk.Put(key, body, costNs)
	}
}
