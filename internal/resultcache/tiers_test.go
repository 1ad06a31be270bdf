package resultcache

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/diskstore"
)

// TestTiers pins the read-through chain every serving path shares: tier
// order, cost-carrying promotion of disk hits, Put into both tiers, and
// nil tiers being skipped rather than dereferenced.
func TestTiers(t *testing.T) {
	const key = "k"
	body := []byte(`{"cell":1}`)
	const absent = -1
	cases := []struct {
		name string
		// mem is the memory tier's budget; absent means a nil Mem.
		mem  int64
		disk bool
		// memSeed/diskSeed preload key into that tier with this cost
		// (absent: not preloaded).
		memSeed, diskSeed int64
		// put runs Put(key, body, 13) instead of Get.
		put      bool
		wantTier Tier
		wantCost uint64
		// wantMem/wantDisk are the cost each tier holds for key
		// afterwards (absent: not held).
		wantMem, wantDisk int64
	}{
		{name: "memory hit", mem: 1 << 10, disk: true, memSeed: 7, diskSeed: absent,
			wantTier: TierMem, wantCost: 7, wantMem: 7, wantDisk: absent},
		{name: "disk hit promotes with its cost", mem: 1 << 10, disk: true, memSeed: absent, diskSeed: 11,
			wantTier: TierDisk, wantCost: 11, wantMem: 11, wantDisk: 11},
		{name: "miss in both tiers", mem: 1 << 10, disk: true, memSeed: absent, diskSeed: absent,
			wantTier: TierNone, wantMem: absent, wantDisk: absent},
		{name: "nil Disk serves memory", mem: 1 << 10, memSeed: 7, diskSeed: absent,
			wantTier: TierMem, wantCost: 7, wantMem: 7, wantDisk: absent},
		{name: "nil Disk miss", mem: 1 << 10, memSeed: absent, diskSeed: absent,
			wantTier: TierNone, wantMem: absent, wantDisk: absent},
		{name: "nil Mem serves disk", mem: absent, disk: true, memSeed: absent, diskSeed: 11,
			wantTier: TierDisk, wantCost: 11, wantMem: absent, wantDisk: 11},
		{name: "nil Mem and nil Disk", mem: absent, memSeed: absent, diskSeed: absent,
			wantTier: TierNone, wantMem: absent, wantDisk: absent},
		{name: "Put lands in both tiers", mem: 1 << 10, disk: true, memSeed: absent, diskSeed: absent,
			put: true, wantMem: 13, wantDisk: 13},
		{name: "zero-budget Mem still serves disk hits", mem: 0, disk: true, memSeed: absent, diskSeed: 11,
			wantTier: TierDisk, wantCost: 11, wantMem: absent, wantDisk: 11},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var tiers Tiers
			if tc.mem != absent {
				tiers.Mem = New(tc.mem)
			}
			if tc.disk {
				s, err := diskstore.Open(t.TempDir(), diskstore.Options{})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { s.Close() })
				tiers.Disk = s
			}
			sync := func() {
				t.Helper()
				if tiers.Disk == nil {
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				if err := tiers.Disk.Sync(ctx); err != nil {
					t.Fatalf("Sync: %v", err)
				}
			}
			if tc.memSeed != absent {
				tiers.Mem.PutCost(key, body, uint64(tc.memSeed))
			}
			if tc.diskSeed != absent {
				tiers.Disk.Put(key, body, uint64(tc.diskSeed))
				sync()
			}

			if tc.put {
				tiers.Put(key, body, 13)
				sync()
			} else {
				got, cost, tier := tiers.Get(key)
				if tier != tc.wantTier || cost != tc.wantCost {
					t.Errorf("Get = tier %d cost %d, want tier %d cost %d", tier, cost, tc.wantTier, tc.wantCost)
				}
				if want := tc.wantTier != TierNone; want != bytes.Equal(got, body) {
					t.Errorf("Get body = %q (tier %d)", got, tier)
				}
			}

			memCost, diskCost := int64(absent), int64(absent)
			if tiers.Mem != nil {
				if _, c, ok := tiers.Mem.GetCost(key); ok {
					memCost = int64(c)
				}
			}
			if tiers.Disk != nil {
				if _, c, ok := tiers.Disk.Get(key); ok {
					diskCost = int64(c)
				}
			}
			if memCost != tc.wantMem || diskCost != tc.wantDisk {
				t.Errorf("afterwards memory holds cost %d, disk %d; want %d, %d", memCost, diskCost, tc.wantMem, tc.wantDisk)
			}
		})
	}
}
