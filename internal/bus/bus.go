// Package bus models contention on the shared memory bus.
//
// Every cache miss occupies the bus for the uncontended line-fill time; the
// observed service time is inflated by a queueing factor derived from the
// bus utilization over a sliding window, approximating an M/M/1 server:
// service = fill / (1 - ρ), clamped. The paper folds contention into the
// work term of its response-time model (Section 2); this component exists
// so that migration-heavy schedules, which raise miss rates, also raise
// effective work — the same indirect effect the paper describes.
package bus

import (
	"fmt"

	"repro/internal/simtime"
)

// maxInflation caps the contention multiplier so that a transiently
// saturated window cannot stall the simulation.
const maxInflation = 8.0

// Bus tracks utilization of the shared bus over a sliding window of
// fixed-width buckets and computes contention-inflated miss service times.
//
// Every transaction occupies the bus for exactly one uncontended fill, so
// the window's busy time is always m·fill for the m fills it holds, and a
// fill's inflated duration D(m) depends on m alone. ServiceN books fills a
// bucket at a time against the prefix sums P[m] = D(0) + … + D(m−1) rather
// than one at a time (see DESIGN.md "Bus contention").
type Bus struct {
	fill    simtime.Duration
	bucketW simtime.Duration
	busy    []int64 // fills per bucket, ring buffer
	cur     int64   // index of the current bucket (monotonic)
	m       int64   // fills summed over the ring

	// P[i] = D(0) + … + D(i−1) for i < built, stored in fixed-size chunks
	// so the table grows with the largest fill count seen and is never
	// copied. It stops at sat, the first fill count at which the window is
	// over-full and D stops changing. It depends only on fill and bucketW,
	// so Reset keeps it while those are unchanged.
	prefix [][]simtime.Duration
	built  int64
	sat    int64
	dsat   simtime.Duration // D(sat)

	transactions uint64
	busyAllTime  simtime.Duration
}

// New creates a bus with the given uncontended line-fill time and averaging
// window. The window is divided into 16 buckets.
func New(fill, window simtime.Duration) (*Bus, error) {
	if err := validate(fill, window); err != nil {
		return nil, err
	}
	b := &Bus{busy: make([]int64, 16)}
	b.Reset(fill, window)
	return b, nil
}

// MustNew is New for known-good parameters.
func MustNew(fill, window simtime.Duration) *Bus {
	b, err := New(fill, window)
	if err != nil {
		panic(err)
	}
	return b
}

func validate(fill, window simtime.Duration) error {
	if fill <= 0 {
		return fmt.Errorf("bus: fill time must be positive, got %v", fill)
	}
	if window < 16 {
		return fmt.Errorf("bus: window too small: %v", window)
	}
	return nil
}

// Reset reinitialises b in place with new parameters, reusing its ring
// buffer and, when fill and window are unchanged, its prefix sums. A reset
// bus is indistinguishable from MustNew(fill, window); like MustNew it
// panics on invalid parameters.
func (b *Bus) Reset(fill, window simtime.Duration) {
	if err := validate(fill, window); err != nil {
		panic(err.Error())
	}
	if fill != b.fill || window/16 != b.bucketW {
		b.fill = fill
		b.bucketW = window / 16
		b.sat = int64(b.window()/fill) + 1
		b.dsat = b.inflated(b.sat)
		b.built = 0
	}
	clear(b.busy)
	b.cur = 0
	b.m = 0
	b.transactions = 0
	b.busyAllTime = 0
}

func (b *Bus) window() simtime.Duration { return b.bucketW * simtime.Duration(len(b.busy)) }

// advance rotates the ring so that it covers the bucket containing now.
func (b *Bus) advance(now simtime.Time) {
	idx := int64(now) / int64(b.bucketW)
	if idx-b.cur >= int64(len(b.busy)) {
		clear(b.busy) // the whole window has expired
		b.cur = idx
		b.m = 0
		return
	}
	for b.cur < idx {
		b.cur++
		slot := int(b.cur % int64(len(b.busy)))
		b.m -= b.busy[slot]
		b.busy[slot] = 0
	}
}

// utilization is the busy fraction of a window holding m fills, in [0, 1].
func (b *Bus) utilization(m int64) float64 {
	u := float64(simtime.Duration(m)*b.fill) / float64(b.window())
	if u > 1 {
		u = 1
	}
	return u
}

// Utilization returns the fraction of the sliding window the bus was busy,
// in [0, 1].
func (b *Bus) Utilization(now simtime.Time) float64 {
	b.advance(now)
	return b.utilization(b.m)
}

// inflated returns D(m), the contention-inflated duration of a fill that
// starts while the window holds m fills.
func (b *Bus) inflated(m int64) simtime.Duration {
	u := b.utilization(m)
	inflation := 1.0
	if u < 1 {
		inflation = 1 / (1 - u)
	}
	if inflation > maxInflation {
		inflation = maxInflation
	}
	return b.fill.Scale(inflation)
}

// prefixChunk is the number of prefix sums per table chunk.
const prefixChunk = 1 << 10

// grow extends the prefix sums to cover P[min(m, sat)].
func (b *Bus) grow(m int64) {
	m = min(m, b.sat)
	for ; b.built <= m; b.built++ {
		c, i := b.built/prefixChunk, b.built%prefixChunk
		if c == int64(len(b.prefix)) {
			b.prefix = append(b.prefix, make([]simtime.Duration, prefixChunk))
		}
		var p simtime.Duration // P[0] = 0
		if b.built > 0 {
			p = b.prefixSum(b.built-1) + b.inflated(b.built-1)
		}
		b.prefix[c][i] = p
	}
}

// prefixSum returns P[m]; P must already be built up to min(m, sat). Past
// sat every fill costs D(sat).
func (b *Bus) prefixSum(m int64) simtime.Duration {
	if m <= b.sat {
		return b.prefix[m/prefixChunk][m%prefixChunk]
	}
	return b.prefixSum(b.sat) + simtime.Duration(m-b.sat)*b.dsat
}

// Service records one line-fill transaction starting at now and returns its
// contention-inflated duration.
func (b *Bus) Service(now simtime.Time) simtime.Duration {
	return b.ServiceN(now, 1)
}

// ServiceN records n back-to-back transactions, the first starting at now
// and each starting when the previous one completes, and returns their
// total inflated duration. It is the bulk path used when a resuming task
// reloads many lines at once.
//
// Fills that start inside the ring's current bucket (including a bucket
// another caller has already advanced past now) see the window grow by one
// fill each and nothing expire, so the j-th of them starts at
// t + P[m+j] − P[m]. Each step books, in one go, every fill that starts
// before the bucket ends, then advances the ring to the next fill's start.
func (b *Bus) ServiceN(now simtime.Time, n int) simtime.Duration {
	var total simtime.Duration
	for n > 0 {
		t := now.Add(total)
		b.advance(t)
		m := b.m
		b.grow(m + int64(n))
		p0 := b.prefixSum(m)
		// Fill 0 starts at t, inside the bucket. k is the first fill that
		// starts at or after the bucket's end, or n if all of them fit.
		room := simtime.Duration((b.cur+1)*int64(b.bucketW) - int64(t))
		lo, hi := 1, n
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if b.prefixSum(m+int64(mid))-p0 < room {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		k := lo
		total += b.prefixSum(m+int64(k)) - p0
		b.busy[int(b.cur%int64(len(b.busy)))] += int64(k)
		b.m += int64(k)
		b.transactions += uint64(k)
		b.busyAllTime += simtime.Duration(k) * b.fill
		n -= k
	}
	return total
}

// Stats describes cumulative bus activity.
type Stats struct {
	Transactions uint64
	BusyTime     simtime.Duration
}

// Stats returns cumulative counters.
func (b *Bus) Stats() Stats {
	return Stats{Transactions: b.transactions, BusyTime: b.busyAllTime}
}
