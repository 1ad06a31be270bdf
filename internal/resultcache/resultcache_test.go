package resultcache

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func TestKeyFraming(t *testing.T) {
	// Distinct (kind, params, version) splits of the same concatenated
	// bytes must produce distinct addresses.
	a := Key("ab", []byte("c"), "v")
	b := Key("a", []byte("bc"), "v")
	if a == b {
		t.Error("length framing failed: split-point collision")
	}
	if Key("t", []byte("p"), "1") == Key("t", []byte("p"), "2") {
		t.Error("engine version does not affect the key")
	}
	if Key("t", []byte("p"), "1") != Key("t", []byte("p"), "1") {
		t.Error("key not deterministic")
	}
	if len(a) != 64 {
		t.Errorf("key length %d, want 64 hex chars", len(a))
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := New(1 << 20)
	if _, _, ok := c.GetCost("k"); ok {
		t.Fatal("hit on empty cache")
	}
	c.PutCost("k", []byte("body"), 0)
	got, _, ok := c.GetCost("k")
	if !ok || !bytes.Equal(got, []byte("body")) {
		t.Fatalf("GetCost = %q, %v", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != 4 {
		t.Errorf("stats %+v", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := New(10)
	c.PutCost("a", []byte("aaaa"), 0) // 4
	c.PutCost("b", []byte("bbbb"), 0) // 8
	c.GetCost("a")                    // a now most recent
	c.PutCost("c", []byte("cccc"), 0) // 12 > 10: evict b (LRU), not a
	if _, _, ok := c.GetCost("b"); ok {
		t.Error("b should have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, _, ok := c.GetCost(k); !ok {
			t.Errorf("%s should have survived", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Bytes != 8 {
		t.Errorf("stats %+v", st)
	}
}

func TestCacheOversizedAndZeroBudget(t *testing.T) {
	c := New(4)
	c.PutCost("big", []byte("12345"), 0) // larger than the whole budget
	if _, _, ok := c.GetCost("big"); ok {
		t.Error("oversized value was stored")
	}
	z := New(0)
	z.PutCost("k", []byte("v"), 0)
	if _, _, ok := z.GetCost("k"); ok {
		t.Error("zero-budget cache stored a value")
	}
}

func TestCacheRePutKeepsOriginal(t *testing.T) {
	c := New(100)
	c.PutCost("k", []byte("first"), 0)
	c.PutCost("k", []byte("XXXXX"), 0)
	got, _, _ := c.GetCost("k")
	if !bytes.Equal(got, []byte("first")) {
		t.Errorf("re-put replaced content-addressed bytes: %q", got)
	}
	if st := c.Stats(); st.Bytes != 5 || st.Entries != 1 {
		t.Errorf("stats %+v", st)
	}
}

// TestCachePutBudgetDiscipline is a table-driven regression test for two
// budget-accounting hazards on the PutCost path:
//
//   - A value larger than the whole budget must be rejected up front — a
//     naive "evict until it fits" loop would evict every resident entry
//     and then fail to store anyway, trading a full cache for nothing.
//   - Re-putting an existing key (which the service does whenever a
//     deduped job finishes after its twin) must not double-count used
//     bytes; the accounting would otherwise leak budget until healthy
//     entries are evicted for phantom usage.
func TestCachePutBudgetDiscipline(t *testing.T) {
	cases := []struct {
		name string
		ops  func(c *Cache)
		// expectations after ops
		wantEntries   int
		wantBytes     int64
		wantEvictions uint64
		wantKeys      []string // must all hit
	}{
		{
			name: "oversized put is a no-op, residents survive",
			ops: func(c *Cache) {
				c.PutCost("a", []byte("aaaa"), 0)
				c.PutCost("b", []byte("bbbb"), 0)
				c.PutCost("huge", bytes.Repeat([]byte("x"), 11), 0) // > whole budget
			},
			wantEntries:   2,
			wantBytes:     8,
			wantEvictions: 0,
			wantKeys:      []string{"a", "b"},
		},
		{
			name: "exactly-budget value stores after evicting all",
			ops: func(c *Cache) {
				c.PutCost("a", []byte("aaaa"), 0)
				c.PutCost("full", bytes.Repeat([]byte("y"), 10), 0) // == budget: legal
			},
			wantEntries:   1,
			wantBytes:     10,
			wantEvictions: 1,
			wantKeys:      []string{"full"},
		},
		{
			name: "re-put does not double-count used bytes",
			ops: func(c *Cache) {
				c.PutCost("k", []byte("12345"), 0)
				for i := 0; i < 10; i++ {
					c.PutCost("k", []byte("12345"), 0)
				}
				// 5 bytes of room must genuinely remain.
				c.PutCost("m", []byte("abcde"), 0)
			},
			wantEntries:   2,
			wantBytes:     10,
			wantEvictions: 0,
			wantKeys:      []string{"k", "m"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(10)
			tc.ops(c)
			st := c.Stats()
			if st.Entries != tc.wantEntries || st.Bytes != tc.wantBytes || st.Evictions != tc.wantEvictions {
				t.Errorf("stats = entries %d bytes %d evictions %d, want %d/%d/%d",
					st.Entries, st.Bytes, st.Evictions,
					tc.wantEntries, tc.wantBytes, tc.wantEvictions)
			}
			for _, k := range tc.wantKeys {
				if _, _, ok := c.GetCost(k); !ok {
					t.Errorf("key %q missing", k)
				}
			}
		})
	}
}

// TestCacheConcurrent exercises the lock under -race.
func TestCacheConcurrent(t *testing.T) {
	c := New(1 << 10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("key-%d", i%17)
				c.PutCost(k, []byte(k), 0)
				if v, _, ok := c.GetCost(k); ok && !bytes.Equal(v, []byte(k)) {
					t.Errorf("corrupt value %q for %q", v, k)
				}
				c.Stats()
			}
		}(g)
	}
	wg.Wait()
}

// TestPutCostAccounting pins the shared eviction-currency bookkeeping:
// resident CostNs tracks inserts, evictions, and the adopt-on-repeat rule,
// while a zero-cost put contributes nothing (cost stays zero).
func TestPutCostAccounting(t *testing.T) {
	c := New(100)
	c.PutCost("a", make([]byte, 40), 5_000)
	c.PutCost("b", make([]byte, 40), 7_000)
	if st := c.Stats(); st.CostNs != 12_000 {
		t.Errorf("CostNs = %d, want 12000", st.CostNs)
	}
	// Evicting a (LRU) must release its cost.
	c.PutCost("c", make([]byte, 40), 1_000)
	st := c.Stats()
	if st.Entries != 2 || st.CostNs != 8_000 {
		t.Errorf("after eviction: entries=%d CostNs=%d, want 2 and 8000", st.Entries, st.CostNs)
	}
	// Re-putting an existing key keeps its original cost...
	c.PutCost("b", make([]byte, 40), 9_999)
	if st := c.Stats(); st.CostNs != 8_000 {
		t.Errorf("re-put changed cost: CostNs = %d, want 8000", st.CostNs)
	}
	// ...unless none was recorded, in which case the cost is adopted.
	c.PutCost("zero", make([]byte, 10), 0)
	if st := c.Stats(); st.CostNs != 8_000 {
		t.Errorf("zero-cost PutCost contributed cost: %d", st.CostNs)
	}
	c.PutCost("zero", make([]byte, 10), 500)
	if st := c.Stats(); st.CostNs != 8_500 {
		t.Errorf("cost not adopted on re-put: CostNs = %d, want 8500", st.CostNs)
	}
}
