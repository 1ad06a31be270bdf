// Package resultcache memoizes completed campaign results: a
// content-addressed, byte-budgeted LRU cache from canonical request
// identity to the exact response body served for it.
//
// The content address is a SHA-256 over (campaign kind, canonical
// parameter encoding, engine version). Because campaign results are
// deterministic — bitwise identical for a given (kind, params, seed) at
// any worker count — a hit can serve the stored bytes verbatim and the
// client cannot distinguish it from a fresh run. The engine version is
// folded into the address so a semantics-changing build (see
// internal/version) can never serve a stale body; no explicit
// invalidation pass is needed.
//
// Tiers chains a Cache over the persistent store (internal/diskstore);
// every serving path, in the service and across the fleet, looks results
// up and files them through it.
package resultcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"sync"
)

// Key derives the content address for one campaign execution. params must
// be the canonical encoding (report.CanonicalJSON) of the *normalized*
// request parameters with Workers zeroed — normalization makes
// semantically identical requests collide, and Workers cannot affect
// result bytes.
func Key(kind string, params []byte, engineVersion string) string {
	h := sha256.New()
	// Length-prefix framing so ("ab","c") and ("a","bc") cannot collide.
	for _, part := range [][]byte{[]byte(kind), params, []byte(engineVersion)} {
		var n [8]byte
		ln := len(part)
		for i := 0; i < 8; i++ {
			n[i] = byte(ln >> (8 * i))
		}
		h.Write(n[:])
		h.Write(part)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Entries   int
	Bytes     int64
	Budget    int64
	Evictions uint64
	// CostNs is the total production cost (engine exec nanoseconds) of the
	// resident entries — the bytes-per-simulated-second currency this tier
	// shares with the disk tier (internal/diskstore). Entries stored with
	// zero cost contribute nothing.
	CostNs uint64
}

// Cache is a thread-safe LRU over immutable byte values with a total byte
// budget. Values are stored and returned by reference: callers must treat
// both inserted and returned slices as read-only (the service serves them
// to many responses concurrently).
type Cache struct {
	mu        sync.Mutex
	budget    int64
	used      int64
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
	costNs    uint64 // total cost of resident entries
}

type entry struct {
	key    string
	val    []byte
	costNs uint64
}

// New builds a cache holding at most budget bytes of values (keys and
// bookkeeping are not counted). A non-positive budget disables storage:
// every GetCost misses and PutCost is a no-op, which keeps the serving path
// uniform for cacheless deployments.
func New(budget int64) *Cache {
	return &Cache{
		budget: budget,
		ll:     list.New(),
		items:  make(map[string]*list.Element),
	}
}

// GetCost returns the value stored under key, marking it most recently
// used, together with the entry's recorded production cost (engine exec
// nanoseconds). The returned slice is shared and must not be modified.
// The cost is the eviction currency shared with the disk tier, so a path
// that copies an entry into another tier — peer cache fill, disk
// promotion — carries the value along rather than re-filing the bytes as
// free (Tiers does this for every serving path).
func (c *Cache) GetCost(key string) ([]byte, uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, 0, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	e := el.Value.(*entry)
	return e.val, e.costNs, true
}

// PutCost stores val under key together with the engine time (in
// nanoseconds) it cost to produce — the eviction currency shared with the
// disk tier — evicting least-recently-used entries until the byte budget
// holds. This tier evicts by recency; the cost rides along so Stats can
// report the simulated-seconds held resident and so a promotion into
// another tier carries the entry's value with it. A value larger than
// the whole budget is not stored. Re-putting an existing key refreshes
// its recency but keeps the original bytes: results are content-
// addressed, so a second body for the same key is byte-identical by
// construction and there is nothing to replace. It does adopt the cost
// if none was recorded yet, so a zero-cost put followed by a costed one
// does not pin the entry at zero value forever.
func (c *Cache) PutCost(key string, val []byte, costNs uint64) {
	if c.budget <= 0 || int64(len(val)) > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		if e := el.Value.(*entry); e.costNs == 0 && costNs > 0 {
			e.costNs = costNs
			c.costNs += costNs
		}
		return
	}
	for c.used+int64(len(val)) > c.budget {
		oldest := c.ll.Back()
		if oldest == nil {
			break
		}
		e := oldest.Value.(*entry)
		c.ll.Remove(oldest)
		delete(c.items, e.key)
		c.used -= int64(len(e.val))
		c.costNs -= e.costNs
		c.evictions++
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, val: val, costNs: costNs})
	c.used += int64(len(val))
	c.costNs += costNs
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Entries:   len(c.items),
		Bytes:     c.used,
		Budget:    c.budget,
		Evictions: c.evictions,
		CostNs:    c.costNs,
	}
}
