package bus

import (
	"testing"

	"repro/internal/simtime"
	"repro/internal/xrand"
)

// refBus is the per-fill bus the closed-form ServiceN must match: every
// transaction advances the ring to its own start time and reads the
// window's busy time, exactly as one Service call per fill did.
type refBus struct {
	fill, bucketW simtime.Duration
	busy          []simtime.Duration
	cur           int64
	total         simtime.Duration
	transactions  uint64
	busyAllTime   simtime.Duration
}

func newRefBus(fill, window simtime.Duration) *refBus {
	return &refBus{fill: fill, bucketW: window / 16, busy: make([]simtime.Duration, 16)}
}

func (r *refBus) advance(now simtime.Time) {
	idx := int64(now) / int64(r.bucketW)
	for r.cur < idx {
		r.cur++
		slot := int(r.cur % int64(len(r.busy)))
		r.total -= r.busy[slot]
		r.busy[slot] = 0
	}
}

func (r *refBus) service(now simtime.Time) simtime.Duration {
	r.advance(now)
	window := r.bucketW * simtime.Duration(len(r.busy))
	u := float64(r.total) / float64(window)
	if u > 1 {
		u = 1
	}
	inflation := 1.0
	if u < 1 {
		inflation = 1 / (1 - u)
	}
	if inflation > maxInflation {
		inflation = maxInflation
	}
	d := r.fill.Scale(inflation)
	r.busy[int(r.cur%int64(len(r.busy)))] += r.fill
	r.total += r.fill
	r.transactions++
	r.busyAllTime += r.fill
	return d
}

func (r *refBus) serviceN(now simtime.Time, n int) simtime.Duration {
	var total simtime.Duration
	for i := 0; i < n; i++ {
		total += r.service(now.Add(total))
	}
	return total
}

// sameState fails unless b's ring, current bucket, window total and
// counters equal the reference's.
func sameState(t *testing.T, ctx string, b *Bus, r *refBus) {
	t.Helper()
	if b.cur != r.cur {
		t.Fatalf("%s: cur = %d, reference %d", ctx, b.cur, r.cur)
	}
	if got := simtime.Duration(b.m) * b.fill; got != r.total {
		t.Fatalf("%s: window busy = %v, reference %v", ctx, got, r.total)
	}
	for i := range r.busy {
		if got := simtime.Duration(b.busy[i]) * b.fill; got != r.busy[i] {
			t.Fatalf("%s: bucket %d busy = %v, reference %v", ctx, i, got, r.busy[i])
		}
	}
	want := Stats{Transactions: r.transactions, BusyTime: r.busyAllTime}
	if got := b.Stats(); got != want {
		t.Fatalf("%s: stats = %+v, reference %+v", ctx, got, want)
	}
}

// TestServiceNMatchesPerFill drives the closed-form ServiceN and the
// per-fill reference through identical random call sequences and requires
// identical returned durations and identical bus state after every call.
// Several simulated processors share each bus, each stalling for the
// duration it was charged, so calls arrive with times behind a bucket
// another processor has already booked into. Gaps range from back-to-back
// calls (the saturated regime, where the window holds more than
// window/fill fills) to idle spans longer than the window; some idle spans
// end a whole number of fills before a bucket boundary, so that a fill
// starts exactly on it. Buses are Reset both to their own and to new
// parameters between runs.
func TestServiceNMatchesPerFill(t *testing.T) {
	rng := xrand.New(1, 0xb05)
	var b *Bus
	for cfg := 0; cfg < 2000; cfg++ {
		fill := simtime.Duration(1 + rng.Intn(2000))
		window := simtime.Duration(16 + rng.Int63n(int64(40*fill)+4*int64(simtime.Millisecond)))
		if b == nil || rng.Intn(2) == 0 {
			b = MustNew(fill, window)
		} else {
			b.Reset(fill, window)
		}
		ref := newRefBus(fill, window)
		clocks := make([]simtime.Time, 1+rng.Intn(6))
		for call := 0; call < 40; call++ {
			p := rng.Intn(len(clocks))
			switch rng.Intn(8) {
			case 0: // idle past the whole window
				clocks[p] = clocks[p].Add(window + simtime.Duration(rng.Int63n(int64(window))))
			case 1: // idle, then a whole number of fills short of a bucket boundary
				w := int64(window / 16)
				next := (int64(clocks[p].Add(window))/w + 2) * w
				clocks[p] = simtime.Time(next - int64(fill)*int64(rng.Intn(4)))
			case 2: // back to back
			default:
				clocks[p] = clocks[p].Add(simtime.Duration(rng.Int63n(int64(window) / 4)))
			}
			n := rng.Intn(300)
			if rng.Intn(10) == 0 {
				n = rng.Intn(3)
			}
			got, want := b.ServiceN(clocks[p], n), ref.serviceN(clocks[p], n)
			if got != want {
				t.Fatalf("config %d (fill %v, window %v) call %d: ServiceN(%v, %d) = %v, per-fill %v",
					cfg, fill, window, call, clocks[p], n, got, want)
			}
			sameState(t, "after ServiceN", b, ref)
			if rng.Intn(4) == 0 {
				got, want := b.Service(clocks[p]), ref.service(clocks[p])
				if got != want {
					t.Fatalf("config %d call %d: Service = %v, per-fill %v", cfg, call, got, want)
				}
				sameState(t, "after Service", b, ref)
			}
			clocks[p] = clocks[p].Add(got)
		}
	}
}

// TestResetKeepsPrefixSums checks that a Reset to unchanged parameters
// reuses the prefix sums and a Reset to new ones rebuilds them.
func TestResetKeepsPrefixSums(t *testing.T) {
	b := MustNew(fill(), simtime.Millisecond)
	b.ServiceN(0, 500)
	built := b.built
	if built == 0 {
		t.Fatal("ServiceN built no prefix sums")
	}
	b.Reset(fill(), simtime.Millisecond)
	if b.built != built {
		t.Errorf("Reset to the same parameters dropped prefix sums: built %d, was %d", b.built, built)
	}
	b.Reset(2*fill(), simtime.Millisecond)
	if b.built != 0 {
		t.Errorf("Reset to a new fill kept %d stale prefix sums", b.built)
	}
	if got, want := b.ServiceN(0, 500), newRefBus(2*fill(), simtime.Millisecond).serviceN(0, 500); got != want {
		t.Errorf("after re-parameterising Reset: ServiceN = %v, per-fill %v", got, want)
	}
}

// BenchmarkServiceN books 156 fills per call, the mean a resuming task
// reloads in a fast compare campaign over Equipartition, Dynamic, Dyn-Aff
// and Dyn-Aff-NoPri (seed 1: 24.2M fills over 155.0k calls), on a bus
// loaded by repeated reloads.
func BenchmarkServiceN(b *testing.B) {
	bus := MustNew(fill(), 10*simtime.Millisecond)
	now := simtime.Time(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now = now.Add(bus.ServiceN(now, 156) + 100*simtime.Microsecond)
	}
}
